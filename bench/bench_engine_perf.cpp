// EXP-PERF — simulator engineering numbers (not from the paper).
//
// Throughput of the discrete-event kernel and of full Algorithm 2
// simulations, in events per second, as n and edge density grow. These
// are real google-benchmark timings (multiple iterations), unlike the
// experiment benches which run once and report skew counters.
//
// The queue benchmarks compare the two engine policies head-to-head
// (second argument: 0 = binary heap, 1 = calendar queue).  The hold
// benchmark is the classic priority-queue workload where the calendar
// queue's O(1) amortized operations beat the heap's O(log n): a steady
// population of `pending` events where every pop schedules a successor.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/network_sim.hpp"
#include "harness/experiment.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/engine.hpp"

namespace {

gcs::sim::EnginePolicy policy_arg(const benchmark::State& state) {
  return state.range(1) == 0 ? gcs::sim::EnginePolicy::kHeap
                             : gcs::sim::EnginePolicy::kCalendar;
}

void set_policy_label(benchmark::State& state) {
  state.SetLabel(state.range(1) == 0 ? "heap" : "calendar");
}

// Deterministic uniform doubles in [0, 1) without <random> overhead.
struct Lcg {
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  double next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(s >> 11) * 0x1.0p-53;
  }
};

// Bulk load `batch` events over a fixed set of timestamps, then drain.
void BM_EventQueue_ScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  set_policy_label(state);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    gcs::sim::Engine engine(policy_arg(state));
    for (std::size_t i = 0; i < batch; ++i) {
      engine.at(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    engine.run_until(1000.0);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) * state.iterations());
}

// Bulk-load `pending` events at distinct random times, then drain them
// all.  The heap pays a full log(pending) cold-cache sift-down per pop;
// the calendar queue drains its buckets in time order with O(1) work per
// event.
void BM_EventQueue_BulkDrain(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  set_policy_label(state);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    gcs::sim::Engine engine(policy_arg(state));
    Lcg times;
    for (std::size_t i = 0; i < pending; ++i) {
      engine.at(times.next() * 1000.0, [&sink] { ++sink; });
    }
    engine.run_until(1001.0);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(pending) *
                          state.iterations());
}

// Hold model: prefill `pending` events, then every event reschedules
// itself one gap ahead, keeping the population constant.  This is the
// regime a long simulation lives in, and where queue asymptotics
// actually show: the acceptance bar for this repo is calendar >= 2x heap
// at pending >= 10k.  Third argument selects the gap distribution:
// 0 = continuous U[0,1) (every timestamp distinct), 1 = slotted (gaps
// quantized to 1/8 -- timestamps collide into same-instant bursts, the
// shape synchronized-round simulations and batched delivery produce).
struct HoldContext {
  gcs::sim::Engine* engine = nullptr;
  Lcg gaps;
  bool slotted = false;
  double next_gap() {
    const double g = gaps.next();
    return slotted ? std::ceil(g * 8.0) * 0.125 : g;
  }
};
HoldContext g_hold;

// Captureless so the std::function stays in its small-buffer slot: the
// benchmark then measures queue operations, not per-event allocations.
void hold_tick() {
  g_hold.engine->at(g_hold.engine->now() + g_hold.next_gap(), &hold_tick);
}

void BM_EventQueue_Hold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  const bool slotted = state.range(2) != 0;
  state.SetLabel(std::string(state.range(1) == 0 ? "heap" : "calendar") +
                 (slotted ? "/slotted" : "/continuous"));
  // ~8 generations of the whole population per iteration.
  const double horizon = 8.0;
  std::uint64_t executed = 0;
  for (auto _ : state) {
    gcs::sim::Engine engine(policy_arg(state));
    g_hold = HoldContext{&engine, Lcg{}, slotted};
    for (std::size_t i = 0; i < pending; ++i) {
      engine.at(g_hold.next_gap(), &hold_tick);
    }
    engine.run_until(horizon);
    executed = engine.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(executed) *
                          state.iterations());
  state.counters["events_per_run"] = static_cast<double>(executed);
  state.counters["pending"] = static_cast<double>(pending);
}

void BM_DcsaSimulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gcs::core::SyncParams params;
  params.n = n;
  params.rho = 0.05;
  params.T = 1.0;
  params.D = 2.5;
  params.delta_h = 0.5;

  std::uint64_t events = 0;
  for (auto _ : state) {
    std::vector<gcs::clk::RateSchedule> schedules;
    for (std::size_t i = 0; i < n; ++i) {
      schedules.emplace_back(i % 2 == 0 ? 1.0 + params.rho : 1.0 - params.rho);
    }
    gcs::core::SimOptions options;
    options.check_conformance = false;  // measure the kernel, not the checks
    gcs::core::NetworkSimulation sim(
        params, gcs::net::DynamicGraph(n, gcs::net::make_ring(n).edges(), {}),
        gcs::net::make_constant_delay(params.T, params.T / 2.0),
        std::move(schedules),
        options);
    sim.run_until(50.0);
    events = sim.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
  state.counters["events_per_run"] = static_cast<double>(events);
}

// Batching audit on a dense graph under constant delay: every broadcast's
// n-1 same-instant deliveries collapse into one engine event, so the
// per-run event count drops by ~average degree versus per-receiver mode
// (second argument: 0 = per-receiver, 1 = batched).
void BM_DcsaDenseDelivery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  state.SetLabel(state.range(1) == 0 ? "per-receiver" : "batched");
  gcs::core::SyncParams params;
  params.n = n;
  params.rho = 0.05;
  params.T = 1.0;
  params.D = 2.5;
  params.delta_h = 0.5;

  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t delivery_events = 0;
  for (auto _ : state) {
    std::vector<gcs::clk::RateSchedule> schedules;
    for (std::size_t i = 0; i < n; ++i) {
      schedules.emplace_back(i % 2 == 0 ? 1.0 + params.rho : 1.0 - params.rho);
    }
    gcs::core::SimOptions options;
    options.check_conformance = false;
    options.batched_delivery = state.range(1) != 0;
    gcs::core::NetworkSimulation sim(
        params,
        gcs::net::DynamicGraph(n, gcs::net::make_complete(n).edges(), {}),
        gcs::net::make_constant_delay(params.T, params.T / 2.0),
        std::move(schedules),
        options);
    sim.run_until(30.0);
    events = sim.events_executed();
    messages = sim.stats().messages_delivered;
    delivery_events = sim.stats().delivery_events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages) *
                          state.iterations());
  state.counters["events_per_run"] = static_cast<double>(events);
  state.counters["delivery_events"] = static_cast<double>(delivery_events);
}

// Telemetry overhead: the same checked experiment with no recorder
// versus a full obs::TelemetryRecorder capturing the series and a bounded
// trace.  Each benchmark iteration runs the PAIR back to back and records
// the on/off wall-time quotient of that pair; the reported
// `telemetry_overhead_ratio` counter is the MEDIAN of the per-pair
// quotients.  Per-pair, because the two arms run under near-identical
// machine conditions so common-mode noise (turbo steps, co-tenants)
// cancels in the quotient; median, because what noise remains is
// heavy-tailed.  Iterations are pinned so the median always has the same
// sample size regardless of --benchmark_min_time.  The recorder contract
// says it only observes; scripts/perf_compare.py gates this counter at
// < 1.05.
void BM_TelemetryOverhead(benchmark::State& state) {
  gcs::harness::ExperimentConfig cfg;
  cfg.params.n = 32;
  cfg.params.rho = 0.05;
  cfg.params.T = 1.0;
  cfg.params.D = 2.5;
  cfg.params.delta_h = 0.5;
  cfg.topology = "complete";  // dense: many edges per sample, many messages
  cfg.drift = "spread";
  cfg.delay = "constant:0.5";
  cfg.horizon = 20.0;
  cfg.sample_dt = 0.5;
  using BenchClock = std::chrono::steady_clock;
  std::vector<double> ratios;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto t0 = BenchClock::now();
    events = gcs::harness::run_experiment(cfg).events_executed;
    const auto t1 = BenchClock::now();
    gcs::obs::TelemetryRecorder recorder(4096);
    events = gcs::harness::run_experiment(cfg, &recorder).events_executed;
    const auto t2 = BenchClock::now();
    benchmark::DoNotOptimize(recorder.trace_kept());
    const double off = std::chrono::duration<double>(t1 - t0).count();
    const double on = std::chrono::duration<double>(t2 - t1).count();
    if (off > 0.0) ratios.push_back(on / off);
  }
  std::sort(ratios.begin(), ratios.end());
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * events) *
                          state.iterations());
  state.counters["events_per_run"] = static_cast<double>(events);
  state.counters["telemetry_overhead_ratio"] =
      ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
}

// Sharded engine speedup: the same 10k-node checked-off cell run
// shards=1 (the inline single-threaded reference) versus shards=4, back
// to back in each iteration, exactly like BM_TelemetryOverhead's paired
// arms: the reported `sharded_speedup_ratio` is the MEDIAN of the
// per-pair single/sharded wall-time quotients, so common-mode machine
// noise cancels.  `hw_threads` records the host's concurrency --
// scripts/perf_compare.py only enforces the >= 1.5x floor when the
// CURRENT host has >= 4 hardware threads (on fewer cores the sharded
// arm time-slices its workers and the ratio is informational).  The two
// arms must execute the same event count -- K-invariance -- or the
// benchmark is voided.
void BM_ShardedHold(benchmark::State& state) {
  const std::size_t n = 10000;
  gcs::core::SyncParams params;
  params.n = n;
  params.rho = 0.05;
  params.T = 1.0;
  params.D = 2.5;
  params.delta_h = 0.5;

  auto run_arm = [&params, n](std::size_t shards) {
    std::vector<gcs::clk::RateSchedule> schedules;
    for (std::size_t i = 0; i < n; ++i) {
      schedules.emplace_back(i % 2 == 0 ? 1.0 + params.rho
                                        : 1.0 - params.rho);
    }
    gcs::core::SimOptions options;
    options.check_conformance = false;
    options.seed = 7;
    options.shards = shards;
    gcs::core::NetworkSimulation sim(
        params, gcs::net::DynamicGraph(n, gcs::net::make_ring(n).edges(), {}),
        gcs::net::make_constant_delay(params.T, params.T / 2.0),
        std::move(schedules),
        options);
    sim.run_until(4.0);
    return sim.events_executed();
  };

  using BenchClock = std::chrono::steady_clock;
  std::vector<double> ratios;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto t0 = BenchClock::now();
    const std::uint64_t single = run_arm(1);
    const auto t1 = BenchClock::now();
    const std::uint64_t sharded = run_arm(4);
    const auto t2 = BenchClock::now();
    if (single != sharded) {
      state.SkipWithError("sharded arm executed a different event count");
      return;
    }
    events = single;
    const double single_s = std::chrono::duration<double>(t1 - t0).count();
    const double sharded_s = std::chrono::duration<double>(t2 - t1).count();
    if (sharded_s > 0.0) ratios.push_back(single_s / sharded_s);
  }
  std::sort(ratios.begin(), ratios.end());
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * events) *
                          state.iterations());
  state.counters["events_per_run"] = static_cast<double>(events);
  state.counters["sharded_speedup_ratio"] =
      ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

void BM_DcsaSimulationWithChecks(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gcs::harness::ExperimentConfig cfg;
  cfg.params.n = n;
  cfg.params.rho = 0.05;
  cfg.params.T = 1.0;
  cfg.params.D = 2.5;
  cfg.params.delta_h = 0.5;
  cfg.topology = "ring";
  cfg.drift = "spread";
  cfg.delay = "constant:0.5";
  cfg.horizon = 50.0;
  cfg.sample_dt = 5.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = gcs::harness::run_experiment(cfg);
    events = result.events_executed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
}

}  // namespace

BENCHMARK(BM_EventQueue_ScheduleRun)
    ->ArgsProduct({{1000, 100000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EventQueue_BulkDrain)
    ->ArgsProduct({{10000, 100000, 1000000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EventQueue_Hold)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DcsaSimulation)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DcsaDenseDelivery)
    ->ArgsProduct({{64}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TelemetryOverhead)
    ->Iterations(25)  // fixed median sample size; ~1s total
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShardedHold)
    ->Iterations(5)  // fixed median sample size; two 10k-node arms each
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DcsaSimulationWithChecks)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);
