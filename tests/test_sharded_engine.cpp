// ShardedEngine tests: the K-invariance contract (every observable is
// byte-identical across shard counts, with shards == 1 -- the inline,
// threadless configuration -- as the reference), the globals-before-
// shards ordering rule, the lookahead contract's loud failure, and
// clamp/validation passthrough; and that NetworkSimulation's classic and
// sharded layouts count one schedule alike.
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cli/campaign.hpp"
#include "core/network_sim.hpp"
#include "harness/experiment.hpp"

namespace {

using gcs::sim::PostKey;
using gcs::sim::ShardedEngine;
using gcs::sim::Time;

// A synthetic ping workload over `n` entities dealt onto K shards by
// core::shard_of, exactly the way NetworkSimulation partitions nodes.
// Every entity logs its deliveries; every send goes through post() with
// the canonical key; delays are >= the window by construction.  The
// returned observables must not depend on K.
struct PingRun {
  std::vector<std::vector<std::pair<double, int>>> logs;  // per entity
  std::vector<double> global_ticks;
  std::uint64_t events_executed = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t shard_staged = 0;
};

PingRun run_pings(std::size_t n, std::size_t k) {
  const double kWindow = 0.5;
  const double kHorizon = 20.0;
  ShardedEngine eng(k, kWindow);

  std::vector<std::uint32_t> shard_of(n);
  for (std::size_t u = 0; u < n; ++u) {
    shard_of[u] = gcs::core::shard_of(u, k, n);
  }
  PingRun out;
  out.logs.resize(n);
  std::vector<std::uint64_t> idx(n, 0);

  // Each delivery logs and forwards; entity state is only ever touched
  // on its owning shard.
  std::function<void(std::size_t, int)> deliver = [&](std::size_t u, int hop) {
    const double t = eng.shard_now(shard_of[u]);
    out.logs[u].emplace_back(t, hop);
    if (hop >= 24 || t > kHorizon - 2.0) return;
    const std::size_t v = (u + 3) % n;
    const double delay =
        kWindow + 0.25 * static_cast<double>((u + hop) % 3);
    eng.post(shard_of[u], shard_of[v], t + delay,
             PostKey{t, static_cast<std::uint32_t>(u), idx[u]++},
             [&deliver, v, hop] { deliver(v, hop + 1); });
  };

  for (std::size_t u = 0; u < n; ++u) {
    eng.at(shard_of[u], 0.25 + 0.1 * static_cast<double>(u),
           [&deliver, u] { deliver(u, 0); });
  }
  // A barrier-side observer, like the harness sampler: reads cross-shard
  // state (the global event counter) while every worker is parked.
  eng.every_global(1.0, 1.0, [&](Time t) {
    out.global_ticks.push_back(t + 1e-9 * static_cast<double>(
                                              eng.events_executed()));
  });
  eng.run_until(kHorizon);

  out.events_executed = eng.events_executed();
  out.shard_windows = eng.stats().shard_windows;
  out.shard_staged = eng.stats().shard_staged_events;
  EXPECT_EQ(eng.clamped_count(), 0u);
  EXPECT_EQ(eng.pending(), 1u);  // the sampler's next firing, and only it
  EXPECT_DOUBLE_EQ(eng.now(), kHorizon);
  return out;
}

TEST(ShardedEngine, TrajectoriesAreInvariantAcrossShardCounts) {
  const std::size_t n = 8;
  const PingRun base = run_pings(n, 1);
  ASSERT_GT(base.events_executed, 0u);
  std::uint64_t logged = 0;
  for (const auto& log : base.logs) logged += log.size();
  ASSERT_GT(logged, 0u);
  ASSERT_FALSE(base.global_ticks.empty());
  // Every shard merges its own staged posts; the per-destination counts
  // must still sum to the same total for every K.
  ASSERT_GT(base.shard_staged, 0u);

  for (const std::size_t k :
       {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const PingRun got = run_pings(n, k);
    const std::string label = "k=" + std::to_string(k);
    EXPECT_EQ(base.logs, got.logs) << label;
    EXPECT_EQ(base.global_ticks, got.global_ticks) << label;
    EXPECT_EQ(base.events_executed, got.events_executed) << label;
    EXPECT_EQ(base.shard_windows, got.shard_windows) << label;
    EXPECT_EQ(base.shard_staged, got.shard_staged) << label;
  }
}

TEST(ShardedEngine, GlobalsRunBeforeShardEventsAtTheSameTime) {
  ShardedEngine eng(1, /*window=*/5.0);
  std::vector<std::string> order;
  eng.at(0, 1.0, [&] { order.push_back("shard"); });
  eng.at_global(1.0, [&] { order.push_back("global"); });
  eng.run_until(2.0);
  EXPECT_EQ(order, (std::vector<std::string>{"global", "shard"}));
}

TEST(ShardedEngine, LookaheadViolationFailsLoudly) {
  // A post that lands before the merge barrier means the "delay model"
  // delivered faster than its declared floor; the merge must throw, not
  // silently corrupt the order.
  ShardedEngine eng(2, /*window=*/1.0);
  eng.at(0, 0.5, [&] {
    eng.post(0, 1, 0.6, PostKey{0.5, 0, 0}, [] {});
  });
  EXPECT_THROW(eng.run_until(3.0), std::logic_error);
}

TEST(ShardedEngine, LookaheadViolationMergedOnAWorkerThrowsOnTheCaller) {
  // Shard 3 of 4 merges its own staged posts on its worker thread; the
  // violation must still surface on the caller, and only once.
  ShardedEngine eng(4, /*window=*/1.0);
  eng.at(0, 0.5, [&] {
    eng.post(0, 3, 0.6, PostKey{0.5, 0, 0}, [] {});
  });
  EXPECT_THROW(eng.run_until(3.0), std::logic_error);
  // The violating posts were discarded and the error slot cleared: a
  // later run proceeds without rethrowing a stale error, and the
  // destructor still joins every worker.
  bool ran = false;
  eng.at(3, 5.0, [&] { ran = true; });
  EXPECT_NO_THROW(eng.run_until(6.0));
  EXPECT_TRUE(ran);
}

TEST(ShardedEngine, ViolationsForTwoDestinationsSurfaceOneException) {
  ShardedEngine eng(4, /*window=*/1.0);
  eng.at(1, 0.5, [&] {
    eng.post(1, 2, 0.6, PostKey{0.5, 1, 0}, [] {});
  });
  eng.at(2, 0.5, [&] {
    eng.post(2, 3, 0.7, PostKey{0.5, 2, 0}, [] {});
  });
  int caught = 0;
  try {
    eng.run_until(3.0);
  } catch (const std::logic_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);
  // The second destination's error must not leak into the next call.
  EXPECT_NO_THROW(eng.run_until(4.0));
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(ShardedEngine, PostRejectsNonFiniteTimesOnTheProducer) {
  // A NaN or infinite post must fail where it is made, naming the time,
  // and leave nothing staged: the valid posts around it still merge and
  // run, and later runs do not rethrow.
  ShardedEngine eng(2, /*window=*/1.0);
  const std::size_t ctx = eng.global_ctx();
  int delivered = 0;
  eng.post(ctx, 1, 2.0, PostKey{0.0, 0, 0}, [&] { ++delivered; });
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    try {
      eng.post(ctx, 1, bad, PostKey{0.0, 0, 1}, [&] { ++delivered; });
      ADD_FAILURE() << "post accepted t=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite time"),
                std::string::npos)
          << e.what();
    }
  }
  eng.post(ctx, 1, 3.0, PostKey{0.0, 0, 2}, [&] { ++delivered; });
  EXPECT_EQ(eng.pending(), 2u);
  // From inside a shard callback the throw reaches the caller of
  // run_until, like any callback exception.
  eng.at(0, 0.5, [&] {
    eng.post(0, 1, std::numeric_limits<double>::quiet_NaN(),
             PostKey{0.5, 0, 0}, [] {});
  });
  EXPECT_THROW(eng.run_until(1.0), std::invalid_argument);
  EXPECT_EQ(eng.pending(), 2u);
  EXPECT_NO_THROW(eng.run_until(4.0));
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_NO_THROW(eng.run_until(5.0));
}

TEST(ShardedEngine, FailedMergeDiscardsEveryStagedPostOfItsDestination) {
  // One destination receives valid posts from two contexts and one
  // violating post: the failed merge drops all of them (none reach the
  // queue, none stay staged), the other destination merges normally,
  // and the engine keeps running.
  ShardedEngine eng(3, /*window=*/1.0);
  int ran = 0;
  eng.at(0, 0.5, [&] {
    eng.post(0, 1, 2.0, PostKey{0.5, 0, 0}, [&] { ++ran; });
    eng.post(0, 1, 0.6, PostKey{0.5, 0, 1}, [&] { ++ran; });
    eng.post(0, 2, 2.0, PostKey{0.5, 0, 2}, [&] { ++ran; });
  });
  eng.at(2, 0.5, [&] {
    eng.post(2, 1, 2.5, PostKey{0.5, 2, 0}, [&] { ++ran; });
  });
  EXPECT_THROW(eng.run_until(1.0), std::logic_error);
  EXPECT_EQ(eng.pending(), 1u);  // only shard 2's merged post
  EXPECT_NO_THROW(eng.run_until(4.0));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(ShardedEngine, PostAtExactlyTheBarrierIsAccepted) {
  // t == send_t + window lands exactly on the barrier: the tightest
  // schedule the contract allows must work.
  ShardedEngine eng(2, /*window=*/1.0);
  int delivered = 0;
  eng.at(0, 0.5, [&] {
    eng.post(0, 1, 1.5, PostKey{0.5, 0, 0}, [&] { ++delivered; });
  });
  eng.run_until(3.0);
  EXPECT_EQ(delivered, 1);
}

TEST(ShardedEngine, ClampDiagnosticsPassThrough) {
  ShardedEngine eng(2, /*window=*/1.0);
  eng.at(1, 5.0, [&] { eng.at(1, 1.0, [] {}); });
  eng.run_until(10.0);
  EXPECT_EQ(eng.clamped_count(), 1u);
  EXPECT_DOUBLE_EQ(eng.first_clamped_time(), 1.0);
}

TEST(ShardedEngine, ValidatesConstructionAndHorizon) {
  EXPECT_THROW(ShardedEngine(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, 0.0), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, -1.0), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  ShardedEngine eng(2, 1.0);
  EXPECT_THROW(eng.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(ShardedEngine, ShardCallbackExceptionsRethrowOnTheCaller) {
  ShardedEngine eng(4, /*window=*/1.0);
  eng.at(2, 0.5, [] { throw std::runtime_error("boom on shard 2"); });
  EXPECT_THROW(eng.run_until(2.0), std::runtime_error);
  // The engine is still coherent enough to tear down (the dtor joins the
  // workers); further scheduling also still works.
  eng.at(1, 5.0, [] {});
  eng.run_until(6.0);
}

TEST(ShardedEngine, StatsReportShardCountersAndZeroPolicyCounters) {
  ShardedEngine eng(2, /*window=*/1.0);
  eng.at(0, 0.25, [&] {
    eng.post(0, 1, 1.5, PostKey{0.25, 0, 0}, [] {});
  });
  eng.run_until(4.0);
  const gcs::sim::EngineStats stats = eng.stats();
  EXPECT_GT(stats.shard_windows, 0u);
  EXPECT_EQ(stats.shard_staged_events, 1u);
  EXPECT_GT(stats.max_pending, 0u);
  // Per-policy scheduler counters vary with K, so sharded stats report
  // them as zero instead of leaking K-variant bytes into results.
  EXPECT_EQ(stats.heap_ops, 0u);
  EXPECT_EQ(stats.calendar_bucket_scans, 0u);
  EXPECT_EQ(stats.calendar_resizes, 0u);
}

// The barrier merge: a (K+1)-way merge of the contexts' staged runs,
// each sorted on its own only when it was staged out of order.  Every
// shard must execute the posts it received in exactly the order one
// sort of all of them by (t, send_t, origin, index) gives -- the order
// the merge is defined by -- whether the runs arrive sorted (constant
// delay), out of order (random delays, same-instant senders scheduled in
// reverse id order) or from the barrier-side global context.
enum class MergeDelay { kConstant, kUniform };
using MergeKey = std::tuple<double, double, std::uint32_t, std::uint64_t>;

struct MergeProbe {
  MergeProbe(std::size_t n, std::size_t k, MergeDelay delay)
      : eng(k, kWindow), delay(delay), shard_of(n), index(n, 0), posted(n),
        executed(k), per_entity(n) {
    for (std::size_t u = 0; u < n; ++u) {
      shard_of[u] = gcs::core::shard_of(u, k, n);
    }
  }
  static constexpr double kWindow = 0.5;

  // Entity `u` (or the global context, origin `u` with ctx global_ctx())
  // sends to two entities at `t`; runs in the sender's context.
  void broadcast(std::size_t ctx, std::uint32_t u, double t) {
    const std::size_t n = shard_of.size();
    for (const std::size_t v : {(u + 1) % n, (u + 5) % n}) {
      const std::uint64_t i = index[u]++;
      double d = kWindow;
      if (delay == MergeDelay::kUniform) {
        d += kWindow * static_cast<double>((u * 7919 + i * 104729) % 1000) /
             1000.0;
      }
      const std::uint32_t dst = shard_of[v];
      posted[u].push_back({dst, MergeKey{t + d, t, u, i}});
      eng.post(ctx, dst, t + d, PostKey{t, u, i},
               [this, v, t, u, idx = static_cast<std::uint32_t>(i)] {
                 const std::uint32_t s = shard_of[v];
                 const MergeKey key{eng.shard_now(s), t, u, idx};
                 executed[s].push_back(key);
                 per_entity[v].push_back(key);
               });
    }
  }
  // Each shard's executed posts against one sort of everything posted
  // to it.
  void expect_sort_order() const {
    std::vector<std::vector<MergeKey>> want(executed.size());
    for (const auto& list : posted) {
      for (const auto& [dst, key] : list) want[dst].push_back(key);
    }
    std::size_t total = 0;
    for (std::size_t s = 0; s < want.size(); ++s) {
      std::sort(want[s].begin(), want[s].end());
      EXPECT_EQ(executed[s], want[s]) << "shard " << s;
      total += want[s].size();
    }
    EXPECT_GT(total, 0u);
  }

  ShardedEngine eng;
  MergeDelay delay;
  std::vector<std::uint32_t> shard_of;
  std::vector<std::uint64_t> index;  // per origin
  // Per origin (written by its context), per destination shard and per
  // receiving entity (written by the receiver's shard).
  std::vector<std::vector<std::pair<std::uint32_t, MergeKey>>> posted;
  std::vector<std::vector<MergeKey>> executed;
  std::vector<std::vector<MergeKey>> per_entity;
};

// Entities send at staggered times, so a context's run is in order
// under a constant delay and out of order under a random one.
std::vector<std::vector<MergeKey>> run_staggered(std::size_t k,
                                                 MergeDelay delay) {
  const std::size_t n = 12;
  MergeProbe probe(n, k, delay);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (int j = 0; j < 20; ++j) {
      const double t = 0.05 * u + 0.37 * j;
      probe.eng.at(probe.shard_of[u], t,
                   [&probe, u, t] { probe.broadcast(probe.shard_of[u], u, t); });
    }
  }
  probe.eng.run_until(12.0);
  probe.expect_sort_order();
  return probe.per_entity;
}

TEST(ShardedMerge, EqualsTheSortOrderUnderAConstantDelay) {
  const auto base = run_staggered(1, MergeDelay::kConstant);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(run_staggered(k, MergeDelay::kConstant), base) << "k=" << k;
  }
}

TEST(ShardedMerge, EqualsTheSortOrderUnderAUniformDelay) {
  const auto base = run_staggered(1, MergeDelay::kUniform);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(run_staggered(k, MergeDelay::kUniform), base) << "k=" << k;
  }
}

TEST(ShardedMerge, SameInstantSendersInReverseIdOrderAreSorted) {
  // Every entity sends at the same instants, its event scheduled in
  // reverse id order: each context stages origin 11 before origin 0 at
  // one (t, send_t), so only the run's own sort restores the order.
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    const std::size_t n = 12;
    MergeProbe probe(n, k, MergeDelay::kConstant);
    for (int j = 0; j < 6; ++j) {
      for (auto u = static_cast<std::uint32_t>(n); u-- > 0;) {
        const double t = 0.25 + 1.0 * j;
        probe.eng.at(probe.shard_of[u], t, [&probe, u, t] {
          probe.broadcast(probe.shard_of[u], u, t);
        });
      }
    }
    probe.eng.run_until(8.0);
    probe.expect_sort_order();
    for (const auto& log : probe.per_entity) {
      ASSERT_FALSE(log.empty());
      EXPECT_TRUE(std::is_sorted(log.begin(), log.end()));
    }
  }
}

TEST(ShardedMerge, GlobalContextRunsMergeWithShardRuns) {
  // Barrier-side sends (like an edge-up discovery exchange) stage in the
  // global context's row, at the same instants as shard-side sends.
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const std::size_t n = 12;
    MergeProbe probe(n, k, MergeDelay::kConstant);
    for (std::uint32_t u = 0; u < n; ++u) {
      for (int j = 0; j < 6; ++j) {
        const double t = 0.5 * j + (u % 2 == 0 ? 0.0 : 0.25);
        if (u % 3 == 0) {
          probe.eng.at_global(t, [&probe, u, t] {
            probe.broadcast(probe.eng.global_ctx(), u, t);
          });
        } else {
          probe.eng.at(probe.shard_of[u], t, [&probe, u, t] {
            probe.broadcast(probe.shard_of[u], u, t);
          });
        }
      }
    }
    probe.eng.run_until(6.0);
    probe.expect_sort_order();
  }
}

// Both layouts run one message path, so the schedule-shaped counters --
// what was sent, delivered, dropped, which topology deltas applied, how
// many background packets were offered -- must agree between classic
// (shards = 0) and sharded runs, even though the trajectories differ.
// The counters that differ by design pin each layout's boundary:
// classic coalesces deliveries and audits every one, sharded posts one
// event per message and audits at sample times.
TEST(ShardedNetwork, ClassicAndShardedLayoutsCountTheSameSchedule) {
  for (const char* traffic : {"off", "cbr:bw=1e6:rate=10"}) {
    std::vector<gcs::core::RunStats> runs;
    for (const std::uint64_t shards : {0u, 1u, 4u}) {
      gcs::harness::ExperimentConfig cfg;
      cfg.params.n = 200;
      cfg.drift = "walk";
      cfg.delay = "constant:0.3";
      cfg.traffic = traffic;
      cfg.horizon = 40.0;
      cfg.shards = shards;
      const auto spec = gcs::cli::ScenarioSpec::from_flag(
          "churn:volatile_edges=40:lifetime=1.5");
      cfg.scenario = spec.build(cfg.params.n, cfg.horizon, cfg.seed);
      runs.push_back(gcs::harness::run_experiment(cfg).run_stats);
      const gcs::core::RunStats& s = runs.back();
      if (shards == 0) {
        EXPECT_EQ(s.conformance_checks, s.messages_delivered) << traffic;
        EXPECT_LT(s.delivery_events, s.messages_sent) << traffic;
      } else {
        EXPECT_EQ(s.delivery_events, s.messages_sent) << traffic << shards;
        EXPECT_EQ(s.conformance_checks, 0u) << traffic << shards;
      }
    }
    const gcs::core::RunStats& classic = runs[0];
    // The counts this cell has always produced (gcs_run --n=200
    // --scenario=churn:volatile_edges=40:lifetime=1.5 --delay=constant:0.3
    // --drift=walk --horizon=40, any --shards).
    EXPECT_EQ(classic.messages_sent, 40360u) << traffic;
    EXPECT_EQ(classic.messages_delivered, 38801u) << traffic;
    EXPECT_EQ(classic.messages_dropped, 1246u) << traffic;
    EXPECT_EQ(classic.topology_events_applied, 2092u) << traffic;
    EXPECT_EQ(classic.traffic_packets,
              std::string(traffic) == "off" ? 0u : 191360u);
    for (std::size_t i = 1; i < runs.size(); ++i) {
      const gcs::core::RunStats& s = runs[i];
      EXPECT_EQ(s.messages_sent, classic.messages_sent) << traffic << i;
      EXPECT_EQ(s.messages_delivered, classic.messages_delivered) << traffic;
      EXPECT_EQ(s.messages_dropped, classic.messages_dropped) << traffic;
      EXPECT_EQ(s.topology_events_applied, classic.topology_events_applied)
          << traffic;
      EXPECT_EQ(s.traffic_packets, classic.traffic_packets) << traffic;
    }
  }
}

}  // namespace
