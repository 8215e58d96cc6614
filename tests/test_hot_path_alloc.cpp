// The steady-state message path allocates nothing: no heap allocation per
// scheduled event, per broadcast, per delivery batch or per flow
// emission.  This executable replaces the global allocation functions
// with counting ones (which is why it is its own binary), runs a small
// classic churn cell to its midpoint, and then counts operator new calls
// over the second half.  Set-up, warm-up growth (the calendar slab, the
// batch pool, the outbox) and topology changes may allocate; what is left
// must stay under 1 % of the events executed.
//
// A sharded churn cell is also run whole, counting frees of blocks of
// at least glibc's default mmap threshold: NetworkSimulation sizes its
// queues, outboxes, peer arena and audit scratch before the run, so
// none of them may reallocate (and free a large block) mid-run.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "clk/clock.hpp"
#include "core/network_sim.hpp"
#include "net/delay.hpp"
#include "net/link.hpp"
#include "net/scenario.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_large_frees{0};

// glibc's default M_MMAP_THRESHOLD.  Freeing a block this large raises
// the dynamic threshold, after which freed medium blocks stay resident.
constexpr std::size_t kMmapThreshold = 128 * 1024;

void counted_free(void* p) {
  if (p != nullptr && malloc_usable_size(p) >= kMmapThreshold) {
    g_large_frees.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace {

struct HalfRun {
  std::uint64_t events = 0;
  std::uint64_t allocations = 0;
  std::uint64_t delivered = 0;
};

// A 96-node ring-plus-churn cell on the classic engine, checked at every
// delivery; returns what its second half executed and allocated.
HalfRun second_half(gcs::net::LinkModel link) {
  constexpr double kHorizon = 40.0;
  gcs::core::SyncParams p;
  p.n = 96;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.5;
  p.delta_h = 0.5;
  gcs::util::Rng scenario_rng(11);
  const gcs::net::Scenario scenario =
      gcs::net::make_churn_scenario(p.n, 4, 16.0, kHorizon, scenario_rng);
  std::vector<gcs::clk::RateSchedule> clocks;
  for (std::size_t i = 0; i < p.n; ++i) {
    clocks.push_back(gcs::clk::RateSchedule::random_walk(
        p.rho, 1.0, p.rho / 4.0, 500 + i, 1.0, kHorizon + 2.0 * p.delta_h));
  }
  gcs::core::NetworkSimulation sim(p, scenario.to_dynamic_graph(),
                                   std::move(link), std::move(clocks));
  sim.run_until(kHorizon / 2.0);
  const std::uint64_t events = sim.events_executed();
  const std::uint64_t delivered = sim.stats().messages_delivered;
  const std::uint64_t allocations = g_allocations.load();
  sim.run_until(kHorizon);
  HalfRun half;
  half.allocations = g_allocations.load() - allocations;
  half.events = sim.events_executed() - events;
  half.delivered = sim.stats().messages_delivered - delivered;
  EXPECT_EQ(sim.engine_clamped_count(), 0u);
  EXPECT_EQ(sim.stats().conformance_envelope_failures, 0u);
  return half;
}

void expect_allocation_free(const HalfRun& half) {
  EXPECT_GT(half.events, 1000u);
  EXPECT_GT(half.delivered, 1000u);
  EXPECT_LE(half.allocations * 100, half.events)
      << half.allocations << " allocations for " << half.events
      << " events";
}

TEST(HotPathAllocations, BatchedConstantDelayCell) {
  // Constant delay: every broadcast's fan-out lands on one instant and
  // is delivered as one pooled batch.
  const HalfRun half = second_half(gcs::net::make_constant_delay(1.0, 0.5));
  expect_allocation_free(half);
}

TEST(HotPathAllocations, CbrTrafficCell) {
  // Continuous delays (one event per message) behind cbr flows that
  // reschedule themselves on every live link direction.
  const HalfRun half = second_half(gcs::net::LinkModel(
      gcs::net::make_uniform_delay(1.0, 0.25, 1.0),
      gcs::net::parse_traffic("cbr:bw=8000:rate=5:pkt=1000:queue=4000")));
  expect_allocation_free(half);
}

TEST(HotPathAllocations, FourShardChurnRunFreesNoLargeBlock) {
  // Big enough that every per-shard buffer (queue slab, outboxes, peer
  // arena columns) and the audit's union-find pass the threshold.
  constexpr double kHorizon = 6.0;
  gcs::core::SyncParams p;
  p.n = 40000;
  p.rho = 0.02;
  p.T = 0.5;
  p.D = 1.0;
  p.delta_h = 0.5;
  gcs::util::Rng scenario_rng(5);
  const gcs::net::Scenario scenario =
      gcs::net::make_churn_scenario(p.n, 64, 2.0, kHorizon, scenario_rng);
  std::vector<gcs::clk::RateSchedule> clocks;
  for (std::size_t i = 0; i < p.n; ++i) {
    clocks.push_back(gcs::clk::RateSchedule::random_walk(
        p.rho, 1.0, p.rho / 4.0, 900 + i, 1.0, kHorizon + 2.0 * p.delta_h));
  }
  gcs::core::SimOptions options;
  options.shards = 4;
  gcs::core::NetworkSimulation sim(p, scenario.to_dynamic_graph(),
                                   gcs::net::make_constant_delay(1.0, 0.25),
                                   clocks, options);
  const std::uint64_t before = g_large_frees.load();
  sim.run_until(kHorizon);
  EXPECT_EQ(g_large_frees.load() - before, 0u);
  EXPECT_GT(sim.stats().connectivity_windows_checked, 0u);
  EXPECT_GT(sim.stats().messages_delivered, 100000u);
  EXPECT_EQ(sim.engine_clamped_count(), 0u);
}

}  // namespace
