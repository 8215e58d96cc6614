// The simulation fixture test_determinism.cpp and test_link.cpp share:
// one set of model constants, seeded drift walks, a run that samples
// every node's logical clock, and the bit-for-bit comparison of two runs.
#ifndef GCS_TESTS_SIM_FIXTURE_HPP
#define GCS_TESTS_SIM_FIXTURE_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "clk/clock.hpp"
#include "core/network_sim.hpp"
#include "net/link.hpp"
#include "net/scenario.hpp"

namespace gcs::test {

inline core::SyncParams test_params(std::size_t n) {
  core::SyncParams p;
  p.n = n;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.5;
  p.delta_h = 0.5;
  return p;
}

// Seeded drift walks sized, as the harness sizes them, to the last time
// a run to `horizon` reads a clock: the broadcast after the last one at
// or before the horizon, delta_h of hardware time later.
inline std::vector<clk::RateSchedule> walk_schedules(const core::SyncParams& p,
                                                     std::uint64_t seed,
                                                     double horizon) {
  const double last_read = horizon + p.delta_h / (1.0 - p.rho);
  std::vector<clk::RateSchedule> schedules;
  for (std::size_t i = 0; i < p.n; ++i) {
    schedules.push_back(clk::RateSchedule::random_walk(
        p.rho, /*step_dt=*/1.0, /*sigma=*/p.rho / 4.0, seed * 7919 + i,
        /*start_rate=*/1.0, last_read));
  }
  return schedules;
}

struct Trace {
  std::vector<double> clocks;  // every node's logical clock, every sample
  core::RunStats stats;
  std::uint64_t clamped = 0;
};

// Runs `scenario` to `horizon` under test_params, walk seed 99 and delay
// seed 1234, sampling every clock every 0.25 time units.
inline Trace run_scenario(const net::Scenario& scenario, net::LinkModel link,
                          core::SimOptions options, double horizon) {
  const core::SyncParams p = test_params(scenario.n);
  options.seed = 1234;
  core::NetworkSimulation net(p, scenario.to_dynamic_graph(), std::move(link),
                              walk_schedules(p, 99, horizon), options);
  Trace trace;
  net.schedule_periodic(0.25, 0.25, [&](double) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      trace.clocks.push_back(net.logical_clock(static_cast<core::NodeId>(i)));
    }
  });
  net.run_until(horizon);
  trace.stats = net.stats();
  trace.clamped = net.engine_clamped_count();
  return trace;
}

// Every trajectory observable of two runs, bit for bit: the sampled
// clocks (exact double equality), the message and jump counters, and the
// link counters, whose doubles fold in a pinned order (node order / max).
// Engine event counts are scheduling, not trajectory, so callers compare
// those themselves.
inline void expect_same_trajectory(const Trace& a, const Trace& b,
                                   const std::string& what) {
  EXPECT_EQ(a.clocks, b.clocks) << what;
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent) << what;
  EXPECT_EQ(a.stats.messages_delivered, b.stats.messages_delivered) << what;
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped) << what;
  EXPECT_EQ(a.stats.jumps, b.stats.jumps) << what;
  EXPECT_EQ(a.stats.traffic_packets, b.stats.traffic_packets) << what;
  EXPECT_EQ(a.stats.traffic_dropped, b.stats.traffic_dropped) << what;
  EXPECT_EQ(a.stats.ecn_marks, b.stats.ecn_marks) << what;
  EXPECT_EQ(a.stats.peak_queue_bytes, b.stats.peak_queue_bytes) << what;
  EXPECT_EQ(a.stats.sync_delay_sum, b.stats.sync_delay_sum) << what;
  EXPECT_EQ(a.stats.sync_delay_max, b.stats.sync_delay_max) << what;
}

}  // namespace gcs::test

#endif  // GCS_TESTS_SIM_FIXTURE_HPP
