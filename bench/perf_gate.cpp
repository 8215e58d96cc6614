// perf_gate -- the event engine's performance gates, in one process.
//
// Each gated number is the median quotient of paired arms run back to
// back here, so host speed and common-mode noise cancel and nothing is
// compared against a file recorded on another host.  Usage: perf_gate
// (no options; build Release).  Prints one line per gate: value, bound,
// verdict.  Exit 0 pass, 1 a regression, 2 a bound that does not flag a
// doctored value on its failing side.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/network_sim.hpp"
#include "harness/experiment.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/engine.hpp"

namespace {

struct Bound {
  const char* gate;
  double limit;
  bool floor;  // the value must be >= limit; otherwise <= limit
};

// The Hold model's heap/calendar speed-up (floors: half the quotients of
// the retired google-benchmark baseline, 1.5602, 3.7588, 0.9155 and
// 3.9519, rounded up), the telemetry recorder's on/off overhead, and the
// shards=1/shards=4 speed-up, enforced only where a calibrated spin
// measures the parallel capacity (informational elsewhere).
constexpr Bound kBounds[] = {
    {"hold/10000/continuous", 0.79, true}, {"hold/10000/slotted", 1.88, true},
    {"hold/100000/continuous", 0.46, true}, {"hold/100000/slotted", 1.98, true},
    {"telemetry-overhead", 1.10, false},   {"sharded-speedup", 1.5, true},
    {"parallel-capacity", 3.0, true},
};
constexpr const Bound& kTelemetry = kBounds[4];
constexpr const Bound& kSharded = kBounds[5];
constexpr const Bound& kCapacity = kBounds[6];

// NaN fails every bound.
bool holds(const Bound& b, double value) {
  return b.floor ? value >= b.limit : value <= b.limit;
}

// Seconds `fn` takes.
template <class Fn>
double timed(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Median over `pairs` of time(arm(0)) / time(arm(1)), each pair's arms
// run back to back.
template <class Arm>
double paired(int pairs, Arm&& arm) {
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    const double first = timed([&] { arm(0); });
    ratios.push_back(first / timed([&] { arm(1); }));
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

// Hold model: `pending` events, each rescheduling itself one gap ahead
// (continuous U[0, 1), or slotted to multiples of 1/8) until t = 8.
// Captureless ticks keep the std::function in its small buffer.
gcs::sim::Engine* g_engine = nullptr;
std::uint64_t g_lcg = 0;
bool g_slotted = false;
double next_gap() {
  g_lcg = g_lcg * 6364136223846793005ULL + 1442695040888963407ULL;
  const double g = static_cast<double>(g_lcg >> 11) * 0x1.0p-53;
  return g_slotted ? std::ceil(g * 8.0) * 0.125 : g;
}
void hold_tick() { g_engine->at(g_engine->now() + next_gap(), &hold_tick); }
void hold(gcs::sim::EnginePolicy policy, std::size_t pending) {
  gcs::sim::Engine engine(policy);
  g_engine = &engine;
  g_lcg = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < pending; ++i) engine.at(next_gap(), &hold_tick);
  engine.run_until(8.0);
}

// A 10^4-node ring, checks off, to t = 64 (128 barrier windows) on
// `shards` shards; returns the events executed.  Long enough that the
// steady-state window rounds, not construction and thread start-up,
// decide the speed-up.
std::uint64_t sharded_ring(std::size_t shards) {
  const std::size_t n = 10000;
  gcs::core::SyncParams params;
  params.n = n;
  params.rho = 0.05;
  params.T = 1.0;
  params.D = 2.5;
  params.delta_h = 0.5;
  std::vector<gcs::clk::RateSchedule> schedules;
  for (std::size_t i = 0; i < n; ++i) {
    schedules.emplace_back(i % 2 == 0 ? 1.0 + params.rho : 1.0 - params.rho);
  }
  gcs::core::SimOptions options;
  options.check_conformance = false;
  options.seed = 7;
  options.shards = shards;
  gcs::core::NetworkSimulation sim(
      params, gcs::net::DynamicGraph(n, gcs::net::make_ring(n).edges(), {}),
      gcs::net::make_constant_delay(params.T, params.T / 2.0),
      std::move(schedules), options);
  sim.run_until(64.0);
  return sim.events_executed();
}

// `threads` threads each running `iters` steps of a dependent multiply
// chain, which touches no shared state.
std::atomic<std::uint64_t> g_sink{0};
void spin(int threads, std::uint64_t iters) {
  const auto chain = [iters] {
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < iters; ++i) x = x * 0x5851F42D4C957F2D + 1;
    g_sink += x;
  };
  std::vector<std::thread> pool;
  for (int i = 1; i < threads; ++i) pool.emplace_back(chain);
  chain();
  for (std::thread& t : pool) t.join();
}

// How many of 4 threads run at once: 4 * t(1 thread) / t(4 threads) for
// the same work per thread.
double parallel_capacity(std::uint64_t iters) {
  return 4.0 * paired(5, [iters](int four) { spin(four ? 4 : 1, iters); });
}

}  // namespace

int main() {
  for (const Bound& b : kBounds) {
    const double doctored = b.floor ? b.limit / 2 : b.limit * 2;
    if (holds(b, doctored)) {
      std::fprintf(stderr, "perf_gate: %s passes the doctored value %g\n",
                   b.gate, doctored);
      return 2;
    }
  }
  std::printf("perf_gate: every bound flags a doctored value\n");

  std::string failed;
  const auto report = [&failed](const Bound& b, double value, bool enforced,
                                const std::string& note) {
    const bool ok = !enforced || holds(b, value);
    if (!ok) failed += std::string(" ") + b.gate;
    std::printf("%-24s %8.3fx  %s %6.3fx  %s%s\n", b.gate, value,
                b.floor ? ">=" : "<=", b.limit,
                !enforced ? "informational" : ok ? "ok" : "REGRESSION",
                note.c_str());
  };
  for (int s = 0; s < 4; ++s) {
    g_slotted = s % 2 != 0;
    report(kBounds[s], paired(5, [s](int calendar) {
             hold(calendar ? gcs::sim::EnginePolicy::kCalendar
                           : gcs::sim::EnginePolicy::kHeap,
                  s < 2 ? 10000 : 100000);
           }), true, "");
  }

  // A checked 32-node complete-graph cell: many edges per sample and
  // many messages for the recorder to observe.
  gcs::harness::ExperimentConfig cfg;
  cfg.params.n = 32;
  cfg.params.rho = 0.05;
  cfg.params.T = 1.0;
  cfg.params.D = 2.5;
  cfg.params.delta_h = 0.5;
  cfg.topology = "complete";
  cfg.drift = "spread";
  cfg.delay = "constant:0.5";
  cfg.horizon = 20.0;
  cfg.sample_dt = 0.5;
  report(kTelemetry, paired(25, [&cfg](int off) {
           if (off) return void(gcs::harness::run_experiment(cfg));
           gcs::obs::TelemetryRecorder recorder(4096);
           gcs::harness::run_experiment(cfg, &recorder);
         }), true, "");

  // The capacity is spun (~50 ms a thread) before and after the sharded
  // arms, and the smaller reading decides.  The arms must execute equal
  // event counts, or they timed different work.
  std::uint64_t iters = 1u << 20;
  while (timed([iters] { spin(1, iters); }) < 0.05) iters *= 2;
  const double before = parallel_capacity(iters);
  std::uint64_t single = 0;
  bool same_events = true;
  const double speedup = paired(5, [&](int sharded) {
    const std::uint64_t events = sharded_ring(sharded ? 4 : 1);
    same_events = same_events && (!sharded || events == single);
    single = events;
  });
  const double capacity = std::min(before, parallel_capacity(iters));
  char note[64];
  std::snprintf(note, sizeof note, " (parallel capacity %.2f)", capacity);
  report(kSharded, same_events ? speedup : NAN,
         !same_events || holds(kCapacity, capacity),
         same_events ? note : ": shards=1 and shards=4 executed different "
                              "event counts");

  if (!failed.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perf_gate: failed:%s\n", failed.c_str());
    return 1;
  }
  std::printf("perf_gate: every enforced gate passes\n");
  return 0;
}
