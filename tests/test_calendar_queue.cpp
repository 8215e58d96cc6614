// CalendarQueue unit tests: ordering against sorted-vector and heap
// oracles, FIFO ties, size accounting through resizes, robustness to
// non-monotone pushes and degenerate (all-equal) timestamp loads, and
// the slab's storage bound.
#include "sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.hpp"

namespace {

using gcs::sim::CalendarQueue;
using gcs::sim::ScheduledEvent;
using gcs::sim::Task;

// The records every queue stores are plain data: queues copy them, and
// none of them owns heap memory (sharded_engine.hpp pins Post likewise).
static_assert(std::is_trivially_copyable_v<Task>);
static_assert(sizeof(Task) == 40, "function pointer + 32-byte buffer");
static_assert(std::is_trivially_copyable_v<ScheduledEvent>);
static_assert(sizeof(ScheduledEvent) == 56, "(t, seq, Task)");

ScheduledEvent make_event(double t, std::uint64_t seq) {
  return ScheduledEvent{t, seq, Task([] {})};
}

// The engine's bounded pop: peek() at the minimum and pop_min() it if
// its t <= horizon; otherwise leave the queue as it is.
bool pop_leq(CalendarQueue& q, double horizon, ScheduledEvent* out) {
  double t;
  std::uint64_t seq;
  if (!q.peek(&t, &seq) || t > horizon) return false;
  q.pop_min(out);
  return true;
}

// Drains the queue and returns the (t, seq) pop order.
std::vector<std::pair<double, std::uint64_t>> drain(CalendarQueue& q) {
  std::vector<std::pair<double, std::uint64_t>> out;
  ScheduledEvent ev;
  while (pop_leq(q, 1e300, &ev)) out.emplace_back(ev.t, ev.seq);
  return out;
}

// Deterministic pseudo-random stream (no <random> so the sequence is
// pinned across standard libraries).
struct Lcg {
  std::uint64_t s;
  explicit Lcg(std::uint64_t seed) : s(seed * 2654435761u + 1) {}
  double uniform(double lo, double hi) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + (hi - lo) * (static_cast<double>(s >> 11) * 0x1.0p-53);
  }
};

TEST(CalendarQueue, PopsInTimeSeqOrderAgainstOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CalendarQueue q;
    Lcg rng(seed);
    std::vector<std::pair<double, std::uint64_t>> oracle;
    // Mixed regime: clustered times (duplicates) plus a far tail.
    for (std::uint64_t i = 0; i < 2000; ++i) {
      double t = rng.uniform(0.0, 50.0);
      if (i % 7 == 0) t = static_cast<double>(static_cast<int>(t));  // dups
      if (i % 97 == 0) t *= 1e4;  // sparse far-future tail
      q.push(make_event(t, i));
      oracle.emplace_back(t, i);
    }
    std::sort(oracle.begin(), oracle.end());
    EXPECT_EQ(q.size(), oracle.size());
    EXPECT_EQ(drain(q), oracle) << "seed " << seed;
    EXPECT_EQ(q.size(), 0u);
  }
}

TEST(CalendarQueue, SameTimeEventsAreFifoBySeq) {
  CalendarQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) q.push(make_event(7.5, i));
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i].second, i);
  }
}

TEST(CalendarQueue, AllEqualTimestampsSurviveResizes) {
  // Degenerate width estimation: every event at the same instant.  The
  // queue must keep resizing on load factor and stay FIFO.
  CalendarQueue q;
  for (std::uint64_t i = 0; i < 5000; ++i) q.push(make_event(1.0, i));
  EXPECT_GT(q.resizes(), 0u);
  EXPECT_EQ(q.size(), 5000u);
  const auto order = drain(q);
  for (std::uint64_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1].second, order[i].second);
  }
}

TEST(CalendarQueue, SizeAccountingThroughGrowAndShrink) {
  CalendarQueue q;
  const std::size_t initial_buckets = q.bucket_count();
  std::uint64_t seq = 0;
  ScheduledEvent ev;
  // Grow far past the initial geometry...
  for (std::uint64_t i = 0; i < 10000; ++i) {
    q.push(make_event(static_cast<double>(i % 613) * 0.37, seq++));
    ASSERT_EQ(q.size(), i + 1);
  }
  EXPECT_GT(q.bucket_count(), initial_buckets);
  const std::uint64_t grows = q.resizes();
  EXPECT_GT(grows, 0u);
  // ...then drain to force shrinks; size must stay exact throughout.
  std::size_t remaining = 10000;
  while (pop_leq(q, 1e300, &ev)) {
    --remaining;
    ASSERT_EQ(q.size(), remaining);
  }
  EXPECT_EQ(remaining, 0u);
  EXPECT_GT(q.resizes(), grows);  // shrinks happened
  EXPECT_EQ(q.bucket_count(), initial_buckets);
}

TEST(CalendarQueue, HorizonBoundedPopLeavesQueueIntact) {
  CalendarQueue q;
  q.push(make_event(100.0, 0));
  ScheduledEvent ev;
  EXPECT_FALSE(pop_leq(q, 50.0, &ev));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(pop_leq(q, 100.0, &ev));
  EXPECT_EQ(ev.t, 100.0);
}

TEST(CalendarQueue, EarlierPushAfterFailedPopIsServedFirst) {
  // Regression for the scan-state reset: a failed bounded pop advances
  // the scan toward the far-future minimum; a later push of an earlier
  // event must rewind the scan, not be skipped for a whole lap.
  CalendarQueue q;
  q.push(make_event(1000.0, 0));
  ScheduledEvent ev;
  EXPECT_FALSE(pop_leq(q, 1.0, &ev));
  q.push(make_event(10.0, 1));
  q.push(make_event(12.0, 2));
  const auto order = drain(q);
  const std::vector<std::pair<double, std::uint64_t>> want = {
      {10.0, 1}, {12.0, 2}, {1000.0, 0}};
  EXPECT_EQ(order, want);
}

TEST(CalendarQueue, InterleavedPushPopMatchesOracle) {
  // Steady-state hold pattern with duplicates: pop one, push one ~2x per
  // step, checked against a stable-sorted oracle at the end.
  CalendarQueue q;
  Lcg rng(42);
  std::vector<std::pair<double, std::uint64_t>> popped;
  std::vector<std::pair<double, std::uint64_t>> oracle;
  std::uint64_t seq = 0;
  double now = 0.0;
  auto feed = [&] {
    const double t = now + rng.uniform(0.0, 4.0);
    q.push(make_event(t, seq));
    oracle.emplace_back(t, seq);
    ++seq;
  };
  for (int i = 0; i < 500; ++i) feed();
  ScheduledEvent ev;
  while (pop_leq(q, 1e300, &ev)) {
    ASSERT_GE(ev.t, now);  // never travels back in time
    now = ev.t;
    popped.emplace_back(ev.t, ev.seq);
    if (seq < 3000) feed();
  }
  std::sort(oracle.begin(), oracle.end());
  EXPECT_EQ(popped, oracle);
}

// The (t, seq) min-heap every pop is checked against.
using Key = std::pair<double, std::uint64_t>;
using HeapOracle = std::priority_queue<Key, std::vector<Key>, std::greater<>>;

TEST(CalendarQueue, DifferentialAgainstHeapOracle) {
  CalendarQueue q;
  HeapOracle oracle;
  std::uint64_t seq = 0;
  double now = 0.0;  // time of the last pop
  const auto push = [&](double t) {
    q.push(make_event(t, seq));
    oracle.emplace(t, seq);
    ++seq;
  };
  const auto pop_and_check = [&] {
    ScheduledEvent ev;
    ASSERT_TRUE(pop_leq(q, 1e300, &ev));
    ASSERT_FALSE(oracle.empty());
    EXPECT_EQ(Key(ev.t, ev.seq), oracle.top());
    oracle.pop();
    EXPECT_EQ(q.size(), oracle.size());
    now = ev.t;
  };

  // Every insert position in one bucket of the initial geometry (8
  // buckets of width 1): into an empty bucket, after the tail, before
  // the head, into the middle, equal times (FIFO behind the earlier
  // seq, both mid-list and at the tail), and a next-year event that
  // aliases into the same bucket.
  for (const double t : {0.5, 0.7, 0.2, 0.6, 0.6, 0.7, 8.5, 0.65, 0.1}) {
    push(t);
  }
  EXPECT_EQ(q.resizes(), 0u);
  while (!oracle.empty()) pop_and_check();

  // LIFO slot reuse: the slab never grows past the high-water size.
  const std::size_t slots = q.storage_slots();
  EXPECT_EQ(slots, 9u);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 9; ++i) push(3.0 + 0.25 * i);
    EXPECT_EQ(q.storage_slots(), slots);
    while (!oracle.empty()) pop_and_check();
  }

  // Grow and shrink resizes, twice over, with random pushes and
  // interleaved pops (and bounded pops that must leave the queue be).
  Lcg rng(7);
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (int i = 0; i < 6000; ++i) {
      push(now + rng.uniform(0.0, i % 5 == 0 ? 200.0 : 3.0));
      if (i % 3 == 0) {
        ScheduledEvent ev;
        EXPECT_FALSE(pop_leq(q, oracle.top().first - 1.0, &ev));
        pop_and_check();
      }
    }
    const std::uint64_t grown = q.resizes();
    EXPECT_GT(q.bucket_count(), 1024u);
    while (!oracle.empty()) pop_and_check();
    EXPECT_GT(q.resizes(), grown);
    EXPECT_EQ(q.bucket_count(), 8u);
  }
  EXPECT_LE(q.storage_slots(), 4001u);
}

TEST(CalendarQueue, StorageStaysAtHighWaterUnderAliasedHoldStream) {
  // A steady-state hold stream in which buckets always hold an event a
  // year or more ahead: one push in eight lands up to ~100 years out.
  // Storage that keeps a bucket's drained prefix until the bucket empties
  // grows without bound here; the slab holds one node per pending event
  // at the high-water mark.
  CalendarQueue q;
  Lcg rng(2024);
  std::uint64_t seq = 0;
  double now = 0.0;
  const auto feed = [&] {
    const double gap = seq % 8 == 0 ? rng.uniform(0.0, 400.0)
                                    : rng.uniform(0.0, 4.0);
    q.push(make_event(now + gap, seq++));
  };
  for (int i = 0; i < 4096; ++i) feed();
  std::size_t high_water = q.size();
  ScheduledEvent ev;
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(pop_leq(q, 1e300, &ev));
    ASSERT_GE(ev.t, now);
    now = ev.t;
    feed();
    high_water = std::max(high_water, q.size());
    if (i % 4096 == 0) {
      ASSERT_LE(q.storage_slots(), high_water + 1);
    }
  }
  EXPECT_EQ(q.size(), 4096u);
  EXPECT_LE(q.storage_slots(), high_water + 1);
}

}  // namespace
