#include "harness/serialize.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "util/json.hpp"

namespace {

namespace harness = gcs::harness;
namespace json = gcs::util::json;

harness::ExperimentResult run_small() {
  harness::ExperimentConfig cfg;
  cfg.name = "serialize-unit";
  cfg.params.n = 6;
  cfg.params.D = 2.5;
  cfg.topology = "ring";
  cfg.horizon = 25.0;
  cfg.sample_dt = 0.5;
  cfg.seed = 3;
  return harness::run_experiment(cfg);
}

TEST(Serialize, ResultRoundTripIsIdentity) {
  const harness::ExperimentResult result = run_small();
  const json::Value doc = harness::to_json(result);
  const std::string emitted = json::dump(doc, 2);

  // parse -> emit -> parse: the documents and their bytes must agree.
  const json::Value reparsed = json::parse(emitted);
  const harness::ExperimentResult back = harness::result_from_json(reparsed);
  const json::Value doc2 = harness::to_json(back);
  EXPECT_EQ(doc, doc2);
  EXPECT_EQ(emitted, json::dump(doc2, 2));

  // Spot-check the fields CI gates on actually travel.
  EXPECT_EQ(back.name, result.name);
  EXPECT_EQ(back.max_global_skew, result.max_global_skew);
  EXPECT_EQ(back.global_violations, result.global_violations);
  EXPECT_EQ(back.envelope_violations, result.envelope_violations);
  EXPECT_EQ(back.clamped_events, result.clamped_events);
  EXPECT_EQ(back.run_stats.messages_delivered,
            result.run_stats.messages_delivered);
  EXPECT_EQ(back.run_stats.first_clamped_seq,
            result.run_stats.first_clamped_seq);
  EXPECT_EQ(back.run_stats.connectivity_windows_checked,
            result.run_stats.connectivity_windows_checked);
  EXPECT_GT(back.run_stats.connectivity_windows_checked, 0u);
  EXPECT_EQ(back.run_stats.connectivity_windows_disconnected, 0u);
}

TEST(Serialize, ResultCarriesSchemaVersion) {
  const json::Value doc = harness::to_json(run_small());
  EXPECT_EQ(doc.at("schema_version").as_u64(),
            static_cast<std::uint64_t>(harness::kResultSchemaVersion));
}

TEST(Serialize, RejectsSchemaDrift) {
  json::Value doc = harness::to_json(run_small());
  doc["schema_version"] = harness::kResultSchemaVersion + 1;
  EXPECT_THROW(harness::result_from_json(doc), json::Error);

  // A missing counter is drift too, not a zero.
  json::Value truncated = harness::to_json(run_small());
  truncated.as_object().erase("clamped_events");
  EXPECT_THROW(harness::result_from_json(truncated), json::Error);

  json::Value stats_drift = harness::to_json(run_small());
  stats_drift["run_stats"].as_object().erase("first_clamped_seq");
  EXPECT_THROW(harness::result_from_json(stats_drift), json::Error);

  // The v2 connectivity-audit pair is required like every other counter.
  json::Value no_audit = harness::to_json(run_small());
  no_audit["run_stats"].as_object().erase("connectivity_windows_disconnected");
  EXPECT_THROW(harness::result_from_json(no_audit), json::Error);

  // The v3 subobjects are required whole and field by field.
  json::Value no_engine_stats = harness::to_json(run_small());
  no_engine_stats.as_object().erase("engine_stats");
  EXPECT_THROW(harness::result_from_json(no_engine_stats), json::Error);

  json::Value engine_stats_drift = harness::to_json(run_small());
  engine_stats_drift["engine_stats"].as_object().erase("calendar_resizes");
  EXPECT_THROW(harness::result_from_json(engine_stats_drift), json::Error);

  json::Value no_series = harness::to_json(run_small());
  no_series.as_object().erase("series");
  EXPECT_THROW(harness::result_from_json(no_series), json::Error);

  json::Value series_drift = harness::to_json(run_small());
  series_drift["series"].as_object().erase("max_envelope_ratio");
  EXPECT_THROW(harness::result_from_json(series_drift), json::Error);

  // The v5 memory pair is required like every other counter.
  json::Value no_arena = harness::to_json(run_small());
  no_arena["run_stats"].as_object().erase("arena_bytes");
  EXPECT_THROW(harness::result_from_json(no_arena), json::Error);

  json::Value no_rss = harness::to_json(run_small());
  no_rss["run_stats"].as_object().erase("peak_rss_kb");
  EXPECT_THROW(harness::result_from_json(no_rss), json::Error);

  // The v6 traffic counters and the series queue gauge are required too:
  // a v6 reader must reject a writer that silently lost them.
  for (const char* field : {"traffic_packets", "traffic_dropped", "ecn_marks",
                            "peak_queue_bytes", "sync_delay_sum",
                            "sync_delay_max"}) {
    json::Value no_traffic = harness::to_json(run_small());
    no_traffic["run_stats"].as_object().erase(field);
    EXPECT_THROW(harness::result_from_json(no_traffic), json::Error) << field;
  }
  json::Value no_queue_gauge = harness::to_json(run_small());
  no_queue_gauge["series"].as_object().erase("peak_queue_bytes");
  EXPECT_THROW(harness::result_from_json(no_queue_gauge), json::Error);
}

TEST(Serialize, V6TrafficCountersTravel) {
  const harness::ExperimentResult result = run_small();
  const harness::ExperimentResult back = harness::result_from_json(
      json::parse(json::dump(harness::to_json(result))));
  // run_small has no traffic configured: the pipeline counters are zero,
  // but the sync-latency pair is recorded unconditionally.
  EXPECT_EQ(back.run_stats.traffic_packets, 0u);
  EXPECT_EQ(back.run_stats.peak_queue_bytes, 0u);
  EXPECT_GT(result.run_stats.sync_delay_sum, 0.0);
  EXPECT_EQ(back.run_stats.sync_delay_sum, result.run_stats.sync_delay_sum);
  EXPECT_EQ(back.run_stats.sync_delay_max, result.run_stats.sync_delay_max);
  EXPECT_EQ(back.series.peak_queue_bytes, result.series.peak_queue_bytes);
  EXPECT_EQ(back.series.peak_queue_bytes, 0.0);
}

TEST(Serialize, V7VariantEchoTravelsAndDefaults) {
  // The v7 config echo carries the protocol variant; a pre-v7 document
  // without the key reads back as the published algorithm.
  const harness::ExperimentConfig cfg;
  const json::Value doc = harness::config_to_json(cfg);
  EXPECT_EQ(doc.at("variant").as_string(), "dcsa");
  const harness::ExperimentConfig back =
      harness::config_from_json(json::parse(R"({"n": 6})"));
  EXPECT_EQ(back.variant, "dcsa");
  EXPECT_EQ(back.params.n, 6u);
}

// An echo written before `key` was retired no longer appears in new
// echoes, reads as the same config as one without the key, and any value
// but the legacy ones throws naming the axis.
void expect_retired_echo(const std::string& key,
                         std::vector<const char*> legacy) {
  EXPECT_EQ(harness::config_to_json(harness::ExperimentConfig{}).find(key),
            nullptr);
  const auto reread = [](const json::Value& doc) {
    return harness::config_to_json(harness::config_from_json(doc));
  };
  json::Value doc = json::parse(R"({"n": 6, "variant": "nojump"})");
  const json::Value plain = reread(doc);
  for (const char* value : legacy) {
    doc[key] = std::string(value);
    EXPECT_EQ(reread(doc), plain) << key << " " << value;
  }
  for (const json::Value& bad :
       {json::Value("adapter"), json::Value("wheel"), json::Value(1)}) {
    doc[key] = bad;
    try {
      reread(doc);
      ADD_FAILURE() << key << " " << json::dump(bad) << " was accepted";
    } catch (const json::Error& e) {
      EXPECT_NE(std::string(e.what()).find("the " + key + " axis is retired"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, LegacyStoreEchoReadsAndAdapterIsRejected) {
  expect_retired_echo("store", {"columns"});
}

TEST(Serialize, RetiredExecutionEchoes) {
  expect_retired_echo("engine", {"calendar", "heap"});
  expect_retired_echo("delivery", {"batched", "per-receiver"});
}

TEST(Serialize, V5MemoryCountersTravel) {
  const harness::ExperimentResult result = run_small();
  const harness::ExperimentResult back = harness::result_from_json(
      json::parse(json::dump(harness::to_json(result))));
  // The kernel's arena is real; the runner-filled peak_rss_kb stays 0 at
  // this layer.
  EXPECT_GT(result.run_stats.arena_bytes, 0u);
  EXPECT_EQ(back.run_stats.arena_bytes, result.run_stats.arena_bytes);
  EXPECT_EQ(back.run_stats.peak_rss_kb, result.run_stats.peak_rss_kb);
}

TEST(Serialize, V3SubobjectsTravel) {
  const harness::ExperimentResult result = run_small();
  const harness::ExperimentResult back = harness::result_from_json(
      json::parse(json::dump(harness::to_json(result))));

  EXPECT_EQ(back.engine_stats.max_pending, result.engine_stats.max_pending);
  EXPECT_EQ(back.engine_stats.heap_ops, result.engine_stats.heap_ops);
  EXPECT_EQ(back.engine_stats.calendar_resizes,
            result.engine_stats.calendar_resizes);
  EXPECT_EQ(back.engine_stats.calendar_bucket_scans,
            result.engine_stats.calendar_bucket_scans);
  EXPECT_GT(back.engine_stats.max_pending, 0u);

  EXPECT_EQ(back.series.points, result.series.points);
  EXPECT_EQ(back.series.points, result.samples);
  EXPECT_EQ(back.series.mean_global_skew, result.series.mean_global_skew);
  EXPECT_EQ(back.series.max_envelope_ratio, result.series.max_envelope_ratio);
  EXPECT_EQ(back.series.peak_live_edges, result.series.peak_live_edges);
  EXPECT_EQ(back.series.peak_in_flight, result.series.peak_in_flight);
  EXPECT_EQ(back.series.peak_engine_pending,
            result.series.peak_engine_pending);
  // A ring of 6 stays fully live the whole run.
  EXPECT_EQ(back.series.peak_live_edges, 6u);
  EXPECT_GT(back.series.max_envelope_ratio, 0.0);
  EXPECT_LT(back.series.max_envelope_ratio, 1.0);
}

TEST(Serialize, ConfigRoundTrip) {
  harness::ExperimentConfig cfg;
  cfg.name = "cfg-unit";
  cfg.params.n = 12;
  cfg.params.rho = 0.01;
  cfg.params.B0 = 30.0;
  cfg.topology = "complete";
  cfg.drift = "two-camp";
  cfg.delay = "constant:0.25";
  cfg.traffic = "cbr:bw=4000:rate=10";
  cfg.variant = "weighted:0.5";
  cfg.horizon = 75.0;
  cfg.sample_dt = 0.25;
  cfg.seed = 99;

  const json::Value doc = harness::config_to_json(cfg);
  const harness::ExperimentConfig back =
      harness::config_from_json(json::parse(json::dump(doc)));
  EXPECT_EQ(harness::config_to_json(back), doc);
  EXPECT_EQ(back.params.n, 12u);
  EXPECT_EQ(back.delay, "constant:0.25");
  EXPECT_EQ(back.traffic, "cbr:bw=4000:rate=10");
  EXPECT_EQ(back.variant, "weighted:0.5");
  EXPECT_EQ(back.seed, 99u);
}

TEST(Serialize, ConfigReaderDefaultsMissingAndRejectsUnknownKeys) {
  const harness::ExperimentConfig sparse =
      harness::config_from_json(json::parse(R"({"n": 4, "drift": "walk"})"));
  EXPECT_EQ(sparse.params.n, 4u);
  EXPECT_EQ(sparse.drift, "walk");
  EXPECT_EQ(sparse.topology, "path");  // ExperimentConfig default
  EXPECT_EQ(sparse.traffic, "off");

  EXPECT_THROW(
      harness::config_from_json(json::parse(R"({"topologyy": "ring"})")),
      json::Error);

  // A value of the wrong kind is refused naming its key and the value.
  const std::pair<const char*, const char*> mistyped[] = {
      {R"({"horizon": "2"})", "config key 'horizon' must be a number"},
      {R"({"n": 2.5})", "config key 'n' must be a whole number >= 0, got '2.5'"},
      {R"({"n": 1e30})", "config key 'n' must be a whole number >= 0"},
      {R"({"seed": -1})", "config key 'seed' must be a whole number >= 0"},
      {R"({"shards": 1.5})", "config key 'shards' must be a whole number"},
      {R"({"drift": 3})", "config key 'drift' must be a string, got '3'"},
  };
  for (const auto& [text, message] : mistyped) {
    try {
      harness::config_from_json(json::parse(text));
      ADD_FAILURE() << "accepted " << text;
    } catch (const json::Error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << text << ": " << e.what();
    }
  }
}

// Every key a reader requires is named when it is missing: drop each key
// of a written result document (and of each subobject) in turn.
TEST(Serialize, EveryDroppedKeyIsRefusedByName) {
  const json::Value doc = harness::to_json(run_small());
  const auto expect_named = [](const json::Value& broken,
                               const std::string& key) {
    try {
      harness::result_from_json(broken);
      ADD_FAILURE() << "accepted a result without '" << key << "'";
    } catch (const json::Error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
          << e.what();
    }
  };
  std::size_t dropped = 0;
  for (const auto& [key, value] : doc.as_object()) {
    json::Value broken = doc;
    broken.as_object().erase(key);
    expect_named(broken, key);
    ++dropped;
    if (!value.is_object()) continue;
    for (const auto& entry : value.as_object()) {
      json::Value nested = doc;
      nested[key].as_object().erase(entry.first);
      expect_named(nested, entry.first);
      ++dropped;
    }
  }
  // 11 result scalars + 3 subobjects, 22 run_stats, 6 engine_stats and 7
  // series keys.
  EXPECT_EQ(dropped, 14u + 22u + 6u + 7u);
}

TEST(Serialize, RunningAndReloadingAgree) {
  // A result that went to disk and came back describes the same run.
  const harness::ExperimentResult a = run_small();
  const harness::ExperimentResult b =
      harness::result_from_json(json::parse(json::dump(harness::to_json(a))));
  EXPECT_EQ(b.events_executed, a.events_executed);
  EXPECT_EQ(b.samples, a.samples);
  EXPECT_EQ(b.run_stats.jumps, a.run_stats.jumps);
  EXPECT_EQ(b.run_stats.total_jump, a.run_stats.total_jump);
}

}  // namespace
