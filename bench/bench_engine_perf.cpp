// EXP-PERF — simulator engineering numbers (not from the paper).
//
// Throughput of the discrete-event kernel and of full Algorithm 2
// simulations, in events per second, as n and edge density grow. These
// are real google-benchmark timings (multiple iterations), unlike the
// experiment benches which run once and report skew counters.
//
// The queue benchmarks compare the two engine policies head-to-head
// (second argument: 0 = binary heap, 1 = calendar queue).  The gated
// quotients -- the Hold model's heap/calendar speed-up, the telemetry
// overhead and the sharded speed-up -- live in bench/perf_gate.cpp.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/network_sim.hpp"
#include "harness/experiment.hpp"
#include "net/topology.hpp"
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
BENCHMARK(BM_DcsaSimulation)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DcsaDenseDelivery)
    ->ArgsProduct({{64}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DcsaSimulationWithChecks)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);
