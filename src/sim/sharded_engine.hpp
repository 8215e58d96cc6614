// gcs::sim -- sharded conservative-parallel DES on the delay floor.
//
// The paper's synchronization model guarantees every message is delayed
// by at least a floor D.  That floor is exactly the lookahead a
// conservative parallel simulator needs: during a time window of width
// D, nothing a shard sends can be received, so K shards may drain their
// own queues concurrently without ever observing an event out of order.
//
// ShardedEngine composes K independent sim::Engine instances (one
// calendar queue per shard, reused unchanged)
// plus one "globals" engine for cross-cutting work (topology deltas,
// periodic samplers) that must see every shard quiescent.  A run is a
// sequence of barrier-window rounds:
//
//   1. the coordinator picks the next barrier
//          b = min(now + window, horizon, next global event time);
//   2. every shard drains its events with t < b in parallel (strictly
//      less: the barrier time itself belongs to the next round);
//   3. barrier, then a second parallel phase: each shard merges the
//      events staged for it during the window (by every context) into
//      its own queue, in a canonical order (below).  The merge starts
//      only after every shard has drained -- a source's outbox is
//      complete only then -- and ends before the globals run.  The
//      merged stream is appended to a FIFO lane of the shard's engine
//      (Engine::add_lane): under a constant delay every barrier's posts
//      follow the previous barrier's, so they never touch the calendar;
//   4. the globals engine runs inclusive to b on the coordinator --
//      at equal times, globals run BEFORE shard events;
//   5. repeat until b == horizon, then drain shard events at exactly
//      the horizon (run_until is inclusive, matching Engine).
//
// Determinism / K-invariance.  Engine orders events by (t, seq), so the
// trajectory is fixed by the ORDER events enter each queue.  Two rules
// make that order independent of the shard count:
//
//   * every cross-entity event -- even one whose destination happens to
//     live on the producing shard -- goes through post(), which stages
//     it in a per-context outbox.  At the barrier, each destination's
//     staged events are merged in (t, key.send_t, key.origin,
//     key.index) order; the key is globally unique (origin x running
//     index), so that is a total order with no tie left to arrival
//     order.  A context stages its posts in execution order, which under
//     a constant delay is already this order, so the merge is a
//     (K+1)-way merge of sorted runs: post() notes whether each run is
//     still in order, and only a run that is not (a random delay, two
//     origins sending at one instant in reverse id order) is sorted, on
//     its own, before the merge.
//   * shard-local follow-ups (an entity rescheduling itself) use at(),
//     which only ever interleaves same-time events of DIFFERENT
//     entities; those touch disjoint state and stage their sends
//     through post(), so their relative execution order is
//     unobservable.
//
// Windows alternate with barriers in a K-invariant sequence (the
// barrier times depend only on the window width, the horizon, and the
// globals schedule), so every queue sees the same (t, seq)-relevant
// insertion order whatever K is -- sharded trajectories are
// byte-identical across shard counts, and shards=1 (which runs inline,
// no worker threads) IS the single-threaded reference.
//
// The lookahead contract: a post staged during a window must satisfy
// t >= send_t + window >= the merge barrier.  merge enforces it with a
// std::logic_error so a delay model lying about its floor fails loudly
// instead of silently corrupting the order.  The error is raised on the
// destination's own thread, rethrown by run_until on the caller, and
// the offending destination's staged posts are discarded whole.
//
// Threading: shard 0 runs on the coordinator thread, shards 1..K-1 on
// dedicated workers parked between phases.  Each barrier round is two
// parallel phases over the same threads -- drain, then merge -- and in
// both a shard's queue is touched only by its owner: in the drain a
// context writes only its own outbox row, in the merge a destination
// reads and clears only its own outbox column.  Globals and the shared
// counters run on the coordinator with every worker parked, and the
// mutex hand-off between phases orders all of it, so the engine is
// clean under ThreadSanitizer by construction.
#ifndef GCS_SIM_SHARDED_ENGINE_HPP
#define GCS_SIM_SHARDED_ENGINE_HPP

#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace gcs::sim {

// Canonical identity of a staged cross-shard event: who produced it,
// when, and its running index among that producer's posts.  Globally
// unique, and independent of how entities are partitioned into shards
// -- which is what lets the barrier merge sort be a total order.
struct PostKey {
  Time send_t = 0.0;
  std::uint32_t origin = 0;
  std::uint64_t index = 0;
};

class ShardedEngine {
 public:
  // `window` is the conservative lookahead (the delay floor); must be
  // positive and finite.  `shards` >= 1; shards == 1 runs everything
  // inline on the calling thread.
  ShardedEngine(std::size_t shards, Duration window);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t shards() const { return engines_.size(); }
  Duration window() const { return window_; }
  // The execution-context id of the globals engine, for post()'s
  // src_ctx: contexts 0..shards()-1 are the shards, shards() is the
  // coordinator running globals.
  std::size_t global_ctx() const { return engines_.size(); }

  // Adds a FIFO lane to every shard's engine and returns its id, the
  // same on every shard (see Engine::add_lane).  Coordinator-only,
  // before the first run_until.
  Engine::Lane add_lane();

  // Schedules a shard-local event, on FIFO lane `lane` of the shard's
  // engine if given.  Callable from the owning shard's execution
  // context during a window, or from the coordinator while every shard
  // is parked (construction, barriers, between runs).
  template <class F>
  void at(std::size_t shard, Time t, F&& fn,
          Engine::Lane lane = Engine::kNoLane) {
    engines_[shard]->at(t, std::forward<F>(fn), lane);
  }

  // Stages an event for `dst_shard`, to be merged at the next barrier
  // under the canonical (t, key) order.  `src_ctx` is the CALLING
  // context (owning shard or global_ctx()); each context writes only
  // its own outbox row, so staging is lock-free.  The callable must fit
  // a Task inline, as for Engine::at.  A non-finite `t` throws std::invalid_argument here,
  // on the producing context, before anything is staged; a finite one
  // must respect the lookahead contract (t >= barrier at merge time) or
  // the merge throws std::logic_error.
  template <class F>
  void post(std::size_t src_ctx, std::size_t dst_shard, Time t, PostKey key,
            F&& fn) {
    static_assert(Task::fits_inline<std::decay_t<F>>,
                  "ShardedEngine::post takes only callables a Task stores "
                  "inline (trivially copyable, at most 32 bytes)");
    require_finite_post(t);
    Outbox& box = outboxes_[src_ctx][dst_shard];
    const Post post{t, key, Task(std::forward<F>(fn))};
    if (!box.posts.empty() && earlier(post, box.posts.back())) {
      box.sorted = false;
    }
    box.posts.push_back(post);
  }

  // Globals: events that may touch any shard's entities.  They execute
  // at barriers with every worker parked.  Coordinator-only.
  template <class F>
  void at_global(Time t, F&& fn) {
    globals_.at(t, std::forward<F>(fn));
  }
  void every_global(Time first, Duration period,
                    std::function<void(Time)> fn);

  // Runs every event with t <= horizon in barrier-window rounds.
  // Rethrows (on the calling thread) anything a shard callback threw.
  void run_until(Time horizon);

  // Global virtual time: the last barrier (== horizon after run_until
  // returns).  Shard clocks sit just below the next barrier mid-window;
  // shard callbacks must use shard_now() of their OWN shard.
  Time now() const { return globals_.now(); }
  Time shard_now(std::size_t shard) const { return engines_[shard]->now(); }

  std::uint64_t events_executed() const;
  std::size_t pending() const;  // queued everywhere + staged in outboxes
  std::uint64_t clamped_count() const;
  // First clamp across contexts (shards in index order, then globals);
  // meaningful only when clamped_count() > 0, and the seq is local to
  // the context that clamped -- diagnostic, like Engine's.
  Time first_clamped_time() const;
  std::uint64_t first_clamped_seq() const;

  // max_pending is sampled at barriers (sum over queues + outboxes);
  // the per-policy scheduler counters are reported as zero because
  // their values depend on the shard count, and result documents must
  // not (see EngineStats).  shard_windows / shard_staged_events are the
  // sharded scheduler's own K-invariant health counters.
  EngineStats stats() const;

 private:
  // One staged cross-shard event.  Trivially copyable: staging and the
  // merge copy it like plain data.
  struct Post {
    Time t = 0.0;
    PostKey key;
    Task task;
  };
  static_assert(std::is_trivially_copyable_v<Post>);
  static_assert(sizeof(Post) == 72, "(t, PostKey, Task)");

  // One context's posts for one destination, in staging order, and
  // whether that order is still the canonical one.  Padded: a row's
  // outboxes are written on every post by their context alone.
  struct alignas(64) Outbox {
    std::vector<Post> posts;
    bool sorted = true;
  };
  // The canonical merge order; keys are unique, so it is total.
  static bool earlier(const Post& a, const Post& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.key.send_t != b.key.send_t) return a.key.send_t < b.key.send_t;
    if (a.key.origin != b.key.origin) return a.key.origin < b.key.origin;
    return a.key.index < b.key.index;
  }
  // The unmerged rest of one source's run.
  struct Cursor {
    const Post* next;
    const Post* end;
  };
  // One destination's merge state, touched only by that shard's thread;
  // padded so two destinations never share a cache line.
  struct alignas(64) Inbox {
    std::vector<Cursor> heads;  // merge scratch: a heap of source runs
    std::uint64_t staged = 0;
  };
  enum class Phase { kDrain, kMerge };

  // Runs `phase` on every shard in parallel (inline when K == 1) and
  // rethrows the first error, coordinator's shard first, then workers
  // in shard order; every error slot is cleared so no later call sees a
  // stale one.
  void run_phase(Phase phase, Time t);
  void run_shard_phase(std::size_t shard, Phase phase, Time t);
  // A NaN or infinite post would throw from Engine::at midway through a
  // merge; rejecting it at post() names the producer instead.
  static void require_finite_post(Time t) {
    if (!std::isfinite(t)) reject_non_finite_post(t);
  }
  [[noreturn]] static void reject_non_finite_post(Time t);
  // Merges destination `dst`'s staged posts into its queue.  On any
  // exception the destination's staged posts are discarded whole, so a
  // failed merge leaves no residue for pending() or a later barrier.
  void merge_into(std::size_t dst, Time barrier);
  void sample_pending();
  void worker_loop(std::size_t shard);

  Duration window_;
  std::vector<std::unique_ptr<Engine>> engines_;
  Engine globals_;
  // outboxes_[src_ctx][dst_shard]; row global_ctx() belongs to the
  // coordinator.  Written by rows during a drain, read and cleared by
  // columns during the merge.
  std::vector<std::vector<Outbox>> outboxes_;
  // The lane of every shard's engine that merged posts ride.
  Engine::Lane merge_lane_ = Engine::kNoLane;
  std::vector<Inbox> inboxes_;  // one per destination shard
  std::uint64_t windows_ = 0;
  std::uint64_t max_pending_ = 0;

  // Worker pool (shards 1..K-1; empty when K == 1).  Workers park on
  // cv_work_ between phases; a bumped generation_ releases them into
  // phase_ with argument target_, and the coordinator waits on cv_done_
  // until remaining_ hits zero.  The mutex hand-off is the
  // happens-before edge that publishes one phase's shard state to the
  // coordinator and to the next phase.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  Phase phase_ = Phase::kDrain;
  Time target_ = 0.0;
  std::size_t remaining_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace gcs::sim

#endif  // GCS_SIM_SHARDED_ENGINE_HPP
