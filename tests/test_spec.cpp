// The axis-spec grammar (util/spec.hpp): the reader's shape rules, the
// whole-number reader, and a seeded mutation test over every spec the
// repo commits.  Each mutated spec must either read into a model whose
// doubles are all finite or throw std::invalid_argument -- never run as
// NaN/Inf, never fail with another exception type.
#include "util/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>

#include "cli/campaign.hpp"
#include "harness/experiment.hpp"
#include "net/link.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

namespace json = gcs::util::json;
namespace spec = gcs::util::spec;

TEST(SpecReader, SplitsKindAndArguments) {
  spec::Reader reader("cbr:bw=8000:4:path=a=b", "traffic");
  EXPECT_EQ(reader.kind(), "cbr");
  spec::Arg arg;
  ASSERT_TRUE(reader.next(&arg));
  EXPECT_EQ(arg.key, "bw");
  EXPECT_EQ(arg.value, "8000");
  ASSERT_TRUE(reader.next(&arg));
  EXPECT_EQ(arg.key, "");  // positional
  EXPECT_EQ(arg.value, "4");
  ASSERT_TRUE(reader.next(&arg));
  EXPECT_EQ(arg.key, "path");  // the first '=' splits
  EXPECT_EQ(arg.value, "a=b");
  EXPECT_FALSE(reader.next(&arg));

  spec::Reader bare("dcsa", "variant");
  EXPECT_EQ(bare.kind(), "dcsa");
  EXPECT_FALSE(bare.next(&arg));
  EXPECT_NO_THROW(bare.finish());
}

TEST(SpecReader, PositionalNumbersAndRefusals) {
  spec::Reader reader("uniform:0.25:2.5e-1", "delay");
  EXPECT_EQ(reader.positional("lo", 0.0), 0.25);
  EXPECT_EQ(reader.positional("hi", 1.0), 0.25);
  EXPECT_EQ(reader.positional("extra", 7.0), 7.0);  // none left: fallback

  const auto refusal = [](const std::string& text, auto&& read) {
    spec::Reader reader(text, "axis");
    try {
      read(reader);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto two = [](spec::Reader& r) {
    r.positional("lo", 0.0);
    r.positional("hi", 1.0);
    r.finish();
  };
  EXPECT_EQ(refusal("u:1:2:3", two), "axis 'u:1:2:3': unexpected argument '3'");
  EXPECT_EQ(refusal("u:", two), "axis 'u:': empty argument");
  EXPECT_EQ(refusal("u::1", two), "axis 'u::1': empty argument");
  EXPECT_EQ(refusal("u:=1", two), "axis 'u:=1': '=1' has an empty key or value");
  EXPECT_EQ(refusal("u:lo=", two), "axis 'u:lo=': 'lo=' has an empty key or value");
  EXPECT_EQ(refusal("u:lo=1", two), "axis 'u:lo=1': 'lo' must be a number, got 'lo=1'");
  EXPECT_EQ(refusal("u:nan", two), "axis 'u:nan': 'lo' must be finite, got 'nan'");
  EXPECT_EQ(refusal("u:0:0x1", two), "axis 'u:0:0x1': 'hi' must be a number, got '0x1'");
}

TEST(SpecReader, WholeNumbers) {
  EXPECT_EQ(spec::whole("0"), 0u);
  EXPECT_EQ(spec::whole("4"), 4u);
  EXPECT_EQ(spec::whole("1e3"), 1000u);
  EXPECT_EQ(spec::whole("9007199254740991"), 9007199254740991u);
  for (const char* text : {"", "-1", "2.5", "0x10", "+4", " 4", "4 ", "nan",
                           "inf", "1e30", "9007199254740992", "four"}) {
    EXPECT_FALSE(spec::whole(text).has_value()) << text;
  }
}

// Every delay / traffic / variant / scenario spec committed in campaigns/,
// docs/ and bench/suite/workloads/ (scenario objects in their flag form),
// with whether it is accepted (docs/ also shows refused delays).
struct Entry {
  const char* axis;
  const char* text;
  bool valid;
};
const Entry kCorpus[] = {
    {"delay", "uniform", true},
    {"delay", "uniform:0.25:1", true},
    {"delay", "constant:0.25", true},
    {"delay", "constant:0.5", true},
    {"delay", "constant:-1", false},
    {"delay", "constant:5", false},
    {"delay", "uniform:0:5", false},
    {"traffic", "off", true},
    {"traffic", "idle", true},
    {"traffic", "idle:bw=8000:mark=1000", true},
    {"traffic", "cbr:bw=4000:rate=40", true},
    {"traffic", "cbr:bw=8000:rate=2:pkt=1000:queue=4000:mark=1000", true},
    {"traffic", "cbr:bw=8000:rate=4:pkt=1000:queue=4000:mark=1000", true},
    {"traffic", "cbr:bw=8000:rate=5:pkt=1000:queue=4000:mark=1000", true},
    {"traffic", "cbr:bw=8000:rate=12:pkt=1000:queue=4000:mark=1000", true},
    {"traffic", "bulk:bw=8000:bytes=12000:interval=6", true},
    {"traffic", "bulk:bw=8000:bytes=12000:interval=6:mark=1000", true},
    {"variant", "dcsa", true},
    {"variant", "weighted:0.5", true},
    {"variant", "noblock", true},
    {"variant", "nojump", true},
    {"scenario", "churn:lifetime=8", true},
    {"scenario", "churn:lifetime=2:volatile_edges=4", true},
    {"scenario", "churn:volatile_edges=6:lifetime=5", true},
    {"scenario", "churn:lifetime=6:volatile_edges=5", true},
    {"scenario", "churn:lifetime=20:volatile_edges=6", true},
    {"scenario", "churn:lifetime=8:volatile_edges=6", true},
    {"scenario", "churn:volatile_edges=32:lifetime=2", true},
    {"scenario", "churn:volatile_edges=64:lifetime=2", true},
    {"scenario", "churn:lifetime=2.0:volatile_edges=64", true},
    {"scenario", "churn:lifetime=8:volatile_edges=64", true},
    {"scenario", "switching-star:period=8:overlap=2", true},
    {"scenario", "switching-star:overlap=2:period=10", true},
    {"scenario", "mobility:radius=0.35", true},
    {"scenario", "mobility:backbone=true:radius=0.35:update_dt=1.0", true},
    {"scenario", "mobility:backbone=false:connect_window=3.5:radius=0.3", true},
    {"scenario", "gauss-markov:alpha=0.85:backbone=false:connect_window=3", true},
    {"scenario",
     "gauss-markov:alpha=0.85:mean_speed=0.04:backbone=false:connect_window=3",
     true},
    {"scenario",
     "gauss-markov:alpha=0.8:backbone=false:connect_window=3.5:mean_speed=0.04:"
     "radius=0.3",
     true},
    {"scenario", "group:groups=3:switch_prob=0.05:backbone=false:connect_window=3",
     true},
    {"scenario",
     "group:backbone=false:connect_window=3.5:group_radius=0.12:groups=3:"
     "radius=0.3:switch_prob=0.05",
     true},
    {"scenario", "trace:path=campaigns/traces/example_contacts.csv", true},
};

bool finite(double v) { return std::isfinite(v); }

// Reads `text` as a spec of `axis`; returns false when the reader refused
// it with std::invalid_argument.  Any accepted model must hold only
// finite doubles.
bool read_checked(const std::string& axis, const std::string& text) {
  try {
    if (axis == "traffic") {
      const gcs::net::TrafficModel m = gcs::net::parse_traffic(text);
      for (const double v : {m.bandwidth, m.sync_bytes, m.queue_bytes,
                             m.mark_bytes, m.rate, m.packet_bytes,
                             m.transfer_bytes, m.interval}) {
        EXPECT_TRUE(finite(v)) << "traffic '" << text << "'";
      }
    } else if (axis == "scenario") {
      const json::Value doc = gcs::cli::ScenarioSpec::from_flag(text).to_json();
      for (const auto& [key, value] : doc.as_object()) {
        if (value.is_number()) {
          EXPECT_TRUE(finite(value.as_number())) << key << " in '" << text << "'";
        }
      }
    } else {
      gcs::harness::ExperimentConfig cfg;
      cfg.params.T = 1.0;
      (axis == "delay" ? cfg.delay : cfg.variant) = text;
      gcs::harness::AxisModels axes = gcs::harness::read_axes(cfg);
      gcs::util::Rng rng(7);
      const double draw = axes.link.prop.sample(gcs::net::Edge(0, 1), rng);
      EXPECT_TRUE(finite(axes.link.prop.bound) && finite(axes.link.prop.floor) &&
                  finite(draw) && finite(axes.variant.weight))
          << axis << " '" << text << "'";
    }
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << axis << " '" << text << "' threw " << typeid(e).name()
                  << ": " << e.what();
  } catch (...) {
    ADD_FAILURE() << axis << " '" << text << "' threw a non-exception";
  }
  return false;
}

TEST(SpecGrammar, CommittedSpecsReadAsBefore) {
  for (const Entry& entry : kCorpus) {
    EXPECT_EQ(read_checked(entry.axis, entry.text), entry.valid)
        << entry.axis << " '" << entry.text << "'";
  }
}

// A deterministic stream of byte- and token-level mutations of the
// corpus: drop, duplicate or swap a byte, insert a hostile token, or
// repeat a ':'-separated segment (a repeated knob).  Every mutant is read
// under every axis, so a traffic mutant also probes the scenario reader.
TEST(SpecGrammar, SeededMutationsAreFiniteOrRefused) {
  const char* const kTokens[] = {":", "=", "nan", "inf", "1e400", "0x", "-"};
  const char* const kAxes[] = {"delay", "traffic", "variant", "scenario"};
  std::mt19937_64 rng(20261019);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = kCorpus[pick(std::size(kCorpus))].text;
    for (std::size_t m = 1 + pick(3); m > 0; --m) {
      const std::size_t at = pick(text.size() + 1);
      switch (pick(5)) {
        case 0:  // drop a byte
          if (at < text.size()) text.erase(at, 1);
          break;
        case 1:  // duplicate a byte
          if (at < text.size()) text.insert(at, 1, text[at]);
          break;
        case 2:  // swap two neighbouring bytes
          if (at + 1 < text.size()) std::swap(text[at], text[at + 1]);
          break;
        case 3:  // insert a hostile token
          text.insert(at, kTokens[pick(std::size(kTokens))]);
          break;
        default: {  // repeat a ':'-separated segment
          const std::size_t colon = text.rfind(':', at);
          if (colon == std::string::npos) break;
          const std::size_t end = text.find(':', colon + 1);
          text += text.substr(colon, end == std::string::npos
                                         ? std::string::npos
                                         : end - colon);
        }
      }
    }
    for (const char* axis : kAxes) {
      (read_checked(axis, text) ? accepted : refused) += 1;
    }
    double v = 0.0;
    if (json::read_number(text, &v) == json::NumberText::kFinite) {
      EXPECT_TRUE(finite(v)) << text;
    }
  }
  // Both outcomes must be common, or the stream tests nothing.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(refused, 20000u);
}

}  // namespace
