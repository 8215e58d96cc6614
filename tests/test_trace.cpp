// Contact-trace parsing (net/trace.hpp): both on-disk formats, the
// strict-and-loud rejection of malformed traces, the file loader's
// extension dispatch, and the horizon rule on conversion to a Scenario.
#include "net/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace {

namespace net = gcs::net;
namespace json = gcs::util::json;

TEST(ContactTrace, ParsesCsvWithCommentsAndBlankLines) {
  const net::ContactTrace trace = net::parse_contact_trace_csv(
      "# a hand-written fixture\n"
      "\n"
      "n,4\n"
      "0,0,1,up\n"
      "  0,2,3,up\n"
      "1.5,1,2,up\n"
      "12.25,0,1,down\r\n");
  EXPECT_EQ(trace.n, 4u);
  ASSERT_EQ(trace.events.size(), 4u);
  EXPECT_DOUBLE_EQ(trace.events[2].t, 1.5);
  EXPECT_EQ(trace.events[2].u, 1u);
  EXPECT_EQ(trace.events[2].v, 2u);
  EXPECT_TRUE(trace.events[2].up);
  EXPECT_FALSE(trace.events[3].up);
}

TEST(ContactTrace, ParsesJson) {
  const json::Value doc = json::parse(
      R"({"n": 3, "events": [[0, 0, 1, "up"], [5.5, 1, 2, "up"],
                             [9, 0, 1, "down"]]})");
  const net::ContactTrace trace = net::parse_contact_trace_json(doc);
  EXPECT_EQ(trace.n, 3u);
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.events[1].t, 5.5);
  EXPECT_FALSE(trace.events[2].up);
}

// Every malformed shape must throw with the offending line/element named,
// not replay a silently different network.
TEST(ContactTrace, RejectsMalformedCsvLoudly) {
  const auto expect_rejects = [](const std::string& text,
                                 const std::string& needle) {
    try {
      net::parse_contact_trace_csv(text);
      FAIL() << "accepted malformed trace: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_rejects("0,0,1,up\n", "first data line");           // no n header
  expect_rejects("n,1\n", "n >= 2");                         // degenerate n
  expect_rejects("n,4\n0,0,1\n", "want 't,u,v,up|down'");    // short line
  expect_rejects("n,4\nx,0,1,up\n", "bad time");             // bad time
  expect_rejects("n,4\n-1,0,1,up\n", "finite and >= 0");     // negative time
  expect_rejects("n,4\n0,0,9,up\n", "out of range");         // bad node id
  expect_rejects("n,4\n0,2,2,up\n", "self-loop");            // self-loop
  expect_rejects("n,4\n0,0,1,flap\n", "'up' or 'down'");     // bad action
  expect_rejects("", "no 'n,<count>' line");                 // empty file
  // Line numbers count every physical line, comments included.
  try {
    net::parse_contact_trace_csv("# one\nn,4\n0,0,1,sideways\n");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(ContactTrace, RejectsMalformedJsonLoudly) {
  const auto expect_rejects = [](const std::string& text) {
    EXPECT_ANY_THROW(
        net::parse_contact_trace_json(json::parse(text)))
        << text;
  };
  expect_rejects(R"({"n": 4})");                              // missing events
  expect_rejects(R"({"n": 4, "events": [], "extra": 1})");    // unknown key
  expect_rejects(R"({"n": 1, "events": []})");                // degenerate n
  expect_rejects(R"({"n": 4, "events": [[0, 0, 1]]})");       // short event
  expect_rejects(R"({"n": 4, "events": [[0, 0, 7, "up"]]})");  // bad id
  expect_rejects(R"({"n": 4, "events": [[-2, 0, 1, "up"]]})");  // bad time
  expect_rejects(R"({"n": 4, "events": [[0, 1, 1, "up"]]})");  // self-loop
  expect_rejects(R"({"n": 4, "events": [[0, 0, 1, "warp"]]})");  // bad action
}

TEST(ContactTrace, LoaderDispatchesOnExtensionAndPrefixesPath) {
  const std::string csv_path = ::testing::TempDir() + "trace_ok.csv";
  {
    std::ofstream out(csv_path);
    out << "n,3\n0,0,1,up\n2,1,2,up\n";
  }
  const net::ContactTrace trace = net::load_contact_trace(csv_path);
  EXPECT_EQ(trace.n, 3u);
  EXPECT_EQ(trace.events.size(), 2u);

  // Missing file, unknown extension, and parse failures all name the path.
  const auto expect_path_error = [](const std::string& path) {
    try {
      net::load_contact_trace(path);
      FAIL() << "loaded " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  };
  expect_path_error(::testing::TempDir() + "no_such_trace.csv");
  const std::string txt_path = ::testing::TempDir() + "trace_bad_ext.txt";
  {
    std::ofstream out(txt_path);
    out << "n,3\n";
  }
  expect_path_error(txt_path);
  const std::string bad_path = ::testing::TempDir() + "trace_bad.csv";
  {
    std::ofstream out(bad_path);
    out << "n,3\n0,0,9,up\n";
  }
  expect_path_error(bad_path);
  std::remove(csv_path.c_str());
  std::remove(txt_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(ContactTrace, LoaderStopsPastTheReadCap) {
  // A trace path naming a device that never ends is refused naming the
  // path and the cap, not read until memory runs out.
  try {
    net::load_contact_trace("/dev/zero");
    FAIL() << "loaded /dev/zero";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("trace '/dev/zero'"), std::string::npos) << message;
    EXPECT_NE(message.find("read cap of " +
                           std::to_string(json::kMaxFileBytes) + " bytes"),
              std::string::npos)
        << message;
  }
}

TEST(ContactTrace, ScenarioConversionAppliesHorizonRule) {
  net::ContactTrace trace;
  trace.n = 4;
  trace.events = {
      {0.0, 0, 1, true},   // t=0 up -> initial edge
      {0.0, 1, 2, true},   // t=0 up -> initial edge
      {3.0, 2, 3, true},   // replayed
      {10.0, 0, 1, false},  // at horizon: dropped, edge stays live
      {12.0, 1, 3, true},   // past horizon: dropped
  };
  const net::Scenario s = net::make_trace_scenario(trace, /*horizon=*/10.0);
  EXPECT_EQ(s.name, "trace");
  EXPECT_EQ(s.n, 4u);
  EXPECT_EQ(s.initial_edges.size(), 2u);
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_DOUBLE_EQ(s.events[0].at, 3.0);
  for (const net::TopologyEvent& ev : s.events) {
    EXPECT_LT(ev.at, 10.0);
  }
  // t=0 contacts fold in file order: an up later cancelled by a down at
  // t=0 nets to absent from the initial edge set, not to a phantom
  // replayed event.
  trace.events.push_back({0.0, 1, 2, false});
  const net::Scenario s2 = net::make_trace_scenario(trace, 10.0);
  EXPECT_EQ(s2.events.size(), 1u);
  EXPECT_EQ(s2.initial_edges.size(), 1u);
  EXPECT_EQ(s2.initial_edges[0], net::Edge(0, 1));
}

TEST(ContactTrace, RejectsOverflowingCounts) {
  // 2^64 is all digits, so only an ERANGE check catches it; the strict
  // parser must stay loud instead of saturating to ULLONG_MAX.
  EXPECT_THROW(net::parse_contact_trace_csv("n,18446744073709551616\n"),
               std::invalid_argument);
}

}  // namespace
