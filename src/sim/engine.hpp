// gcs::sim -- deterministic discrete-event kernel.
//
// The engine is the bottom layer of the simulation stack: everything above
// it (clocks, message delivery, topology changes, periodic samplers) is
// expressed as timestamped callbacks.  Determinism is load-bearing: two
// runs with the same inputs must execute the same callbacks in the same
// order, so events are ordered by (timestamp, insertion sequence) and ties
// are FIFO.
//
// Two interchangeable schedulers sit behind the same API, selected at
// construction:
//
//   * EnginePolicy::kCalendar (default) -- a calendar queue
//     (calendar_queue.hpp): O(1) amortized enqueue/dequeue, sized and
//     re-sized to the observed event spacing.  This is the scale path.
//   * EnginePolicy::kHeap -- the original std::push_heap binary heap:
//     O(log n) per operation, trivially correct.  No simulation selects
//     it; it is the oracle test_engine, test_calendar_queue and the
//     engine-replay tests pop the calendar queue against, and the
//     baseline bench_engine_perf times it against.
//
// Both store the same trivially copyable ScheduledEvent, whose sim::Task
// holds small trivially copyable callables inline (task.hpp).  at()
// accepts only such callables (a static_assert); periodic chains fit
// because their queued firings carry only the chain id.
//
// FIFO lanes.  Many event streams are scheduled in time order by
// construction: deliveries under a constant delay, a flow re-arming one
// fixed period ahead, a shard's merged cross-shard posts.  Re-sorting
// those through the calendar is wasted work, so the calendar engine
// keeps FIFO lanes beside it (add_lane; at() with a lane id).  A lane
// holds only events at or after its tail, so its front is its minimum;
// a push earlier than the tail goes to the calendar instead, and each
// pop takes the (t, seq) minimum over the calendar's front and the lane
// fronts.  seq is still assigned at schedule time, so the pop order --
// and with it every trajectory -- is the one a single queue would
// produce; only the calendar_* counters change, since they count the
// calendar's own work.  The heap oracle keeps no lanes: at() with a
// lane pushes onto the heap.
#ifndef GCS_SIM_ENGINE_HPP
#define GCS_SIM_ENGINE_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/task.hpp"

namespace gcs::sim {

using Time = double;
using Duration = double;

enum class EnginePolicy { kCalendar, kHeap };

// Scheduler-health counters, composed on demand by Engine::stats().
// max_pending is the queue's high-water mark; the policy-specific
// counters expose what each scheduler actually did (heap sift
// operations vs. calendar bucket probes and rebuilds).  Simulations
// always run the calendar queue, so heap_ops is 0 in result documents;
// it stays for the heap runs of the engine tests and benches.  The
// stats describe the scheduler, not the trajectory, so they belong in
// result documents, never in trajectory-derived artifacts like series
// CSVs.
struct EngineStats {
  std::uint64_t max_pending = 0;
  std::uint64_t heap_ops = 0;               // kHeap: push_heap + pop_heap
  std::uint64_t calendar_resizes = 0;       // kCalendar: bucket rebuilds
  std::uint64_t calendar_bucket_scans = 0;  // kCalendar: locate_min probes
  // Sharded-engine counters (sim::ShardedEngine): barrier windows run and
  // cross-shard events staged through outboxes.  Always zero on a plain
  // single-queue engine; in sharded mode these are the only scheduler
  // counters that are invariant across shard counts, so the per-shard
  // policy counters above are reported as zero there.
  std::uint64_t shard_windows = 0;
  std::uint64_t shard_staged_events = 0;
};

// A FIFO of events whose (t, seq) keys arrive in increasing order, so
// its front is its minimum.  Storage is a chain of fixed-size blocks:
// growth adds a block and never copies an event, and a drained block is
// kept as a spare, so a lane holds its high-water event count rounded
// up to a block.  Spares are reused last-drained first: that block's
// lines were just read, so refilling it writes to cache-resident memory.
class EventLane {
 public:
  static constexpr std::size_t kBlockEvents = 512;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Events the allocated blocks hold, live or spare.
  std::size_t capacity() const { return owned_.size() * kBlockEvents; }
  // Time of the last event pushed; meaningful only when !empty().
  Time back_t() const { return back_t_; }
  const ScheduledEvent& front() const { return active_[first_][head_]; }
  void push_back(const ScheduledEvent& ev) {
    if (tail_ == kBlockEvents) add_block();
    active_.back()[tail_++] = ev;
    back_t_ = ev.t;
    ++size_;
  }
  void pop_front();

 private:
  // Appends a spare (or new) block to the chain and points the tail at
  // its start.
  void add_block();

  // The events live in active_[first_][head_] up to (excluding)
  // active_.back()[tail_]; tail_ == kBlockEvents also when no block is
  // active, so the first push adds one.  active_[0, first_) are blocks
  // already moved to spare_, dropped from active_ in bulk.
  std::vector<ScheduledEvent*> active_;
  std::size_t first_ = 0;
  std::vector<ScheduledEvent*> spare_;  // LIFO
  std::vector<std::unique_ptr<ScheduledEvent[]>> owned_;
  std::size_t head_ = 0;
  std::size_t tail_ = kBlockEvents;
  std::size_t size_ = 0;
  Time back_t_ = 0.0;
};

// Cache-line aligned: a sharded run keeps one engine per shard thread,
// and each writes its counters on every event.
class alignas(64) Engine {
 public:
  // A FIFO lane's id (add_lane), or kNoLane for the calendar.
  using Lane = std::uint32_t;
  static constexpr Lane kNoLane = ~Lane{0};

  explicit Engine(EnginePolicy policy = EnginePolicy::kCalendar);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Schedules `fn` at absolute time `t`.  Scheduling in the past (t <
  // now()) clamps to now() -- the event runs on the next run_until() pass
  // -- and increments clamped_count().  Well-formed callers never
  // schedule in the past; tests and the harness assert the counter stays
  // zero so the clamp cannot silently hide scheduling bugs.
  // Non-finite times throw std::invalid_argument under BOTH policies: a
  // NaN poisons the calendar's year arithmetic (every comparison in
  // locate_min is false, so the event becomes unreachable and stalls the
  // scan) and an Inf breaks width estimation, so neither may enter any
  // queue.
  // `fn` must be trivially copyable and fit a Task's inline buffer
  // (Task::fits_inline); a Task passes through unchanged.  `lane` names
  // the FIFO lane the event rides when it is not earlier than that
  // lane's tail (see the file comment); it changes where the event
  // waits, never when it runs.
  template <class F>
  void at(Time t, F&& fn, Lane lane = kNoLane) {
    using D = std::decay_t<F>;
    static_assert(std::is_same_v<D, Task> || Task::fits_inline<D>,
                  "Engine::at schedules only trivially copyable callables "
                  "of at most Task::kInlineBytes bytes");
    require_finite(t);
    if constexpr (std::is_same_v<D, Task>) {
      schedule(t, fn, lane);
    } else {
      schedule(t, Task(std::forward<F>(fn)), lane);
    }
  }

  // Adds a FIFO lane and returns its id (0, 1, ... in call order).
  Lane add_lane();

  // Self-rescheduling periodic callback: fires at `first`, `first +
  // period`, ... for the engine's lifetime; it simply stops being
  // serviced once run_until() is never called past its next firing.
  // Throws std::invalid_argument unless `first` is finite and `period` is
  // finite and positive: a period <= 0 builds a chain that re-fires at
  // the same timestamp forever, livelocking run_until().
  void every(Time first, Duration period, std::function<void(Time)> fn);

  // Executes every pending event with timestamp <= horizon, including
  // events scheduled by callbacks during the run, in (time, seq) order.
  // Advances now() to max(now, horizon).
  void run_until(Time horizon);

  // If any event is pending, stores the earliest pending timestamp in
  // *out and returns true.  Non-const because the calendar advances its
  // scan cursor to the minimum (the same walk the next pop would do, so
  // the peek is effectively free).
  bool next_time(Time* out);

  Time now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }
  std::size_t pending() const {
    return policy_ == EnginePolicy::kHeap ? heap_.size()
                                          : calendar_.size() + lane_events_;
  }
  // Number of at() calls that asked for a time strictly before now().
  std::uint64_t clamped_count() const { return clamped_; }
  // The first offending at() call: the past time it asked for and the seq
  // it was assigned, so a nonzero clamp count points at a concrete event in
  // the schedule.  Meaningful only when clamped_count() > 0.
  Time first_clamped_time() const { return first_clamped_time_; }
  std::uint64_t first_clamped_seq() const { return first_clamped_seq_; }
  // Scheduler-health counters (see EngineStats above).
  EngineStats stats() const {
    EngineStats s;
    s.max_pending = max_pending_;
    s.heap_ops = heap_ops_;
    s.calendar_resizes = calendar_.resizes();
    s.calendar_bucket_scans = calendar_.scan_steps();
    return s;
  }

 private:
  struct Later {
    bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  struct Chain {
    Duration period;
    std::function<void(Time)> fn;
  };

  // Rejects a non-finite t before any queue or clamp math runs, so a bad
  // timestamp has the same (absence of) effect under both policies.
  static void require_finite(Time t) {
    if (!std::isfinite(t)) reject_non_finite(t);
  }
  [[noreturn]] static void reject_non_finite(Time t);
  void schedule(Time t, const Task& task, Lane lane);
  // One firing of chain `id` at `t`: runs its callback and queues the
  // next firing.
  void fire(std::size_t id, Time t);

  EnginePolicy policy_;
  std::vector<ScheduledEvent> heap_;  // kHeap: min-heap via std::push_heap
  CalendarQueue calendar_;            // kCalendar
  std::vector<EventLane> lanes_;      // kCalendar; kHeap ignores lanes
  std::size_t lane_events_ = 0;       // events held by lanes_
  // The self-rescheduling chains created by every(), indexed by id;
  // queued firings carry only the id.  A deque, so a callback that adds
  // a chain cannot move the one running.
  std::deque<Chain> chains_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t max_pending_ = 0;
  std::uint64_t heap_ops_ = 0;
  std::uint64_t clamped_ = 0;
  Time first_clamped_time_ = 0.0;
  std::uint64_t first_clamped_seq_ = 0;
};

}  // namespace gcs::sim

#endif  // GCS_SIM_ENGINE_HPP
