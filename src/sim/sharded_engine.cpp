#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace gcs::sim {

ShardedEngine::ShardedEngine(std::size_t shards, Duration window)
    : window_(window) {
  if (shards == 0) {
    throw std::invalid_argument("ShardedEngine: need at least one shard");
  }
  if (!std::isfinite(window) || window <= 0.0) {
    throw std::invalid_argument(
        "ShardedEngine: lookahead window must be positive and finite, got " +
        std::to_string(window));
  }
  engines_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>());
  }
  merge_lane_ = add_lane();
  outboxes_.assign(shards + 1, std::vector<Outbox>(shards));
  inboxes_.resize(shards);
  errors_.assign(shards, nullptr);
  for (std::size_t s = 1; s < shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ShardedEngine::~ShardedEngine() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardedEngine::reject_non_finite_post(Time t) {
  throw std::invalid_argument("ShardedEngine::post: non-finite time " +
                              std::to_string(t));
}

Engine::Lane ShardedEngine::add_lane() {
  Engine::Lane lane = Engine::kNoLane;
  for (const std::unique_ptr<Engine>& engine : engines_) {
    lane = engine->add_lane();
  }
  return lane;
}

void ShardedEngine::every_global(Time first, Duration period,
                                 std::function<void(Time)> fn) {
  globals_.every(first, period, std::move(fn));
}

void ShardedEngine::worker_loop(std::size_t shard) {
  std::uint64_t seen = 0;
  for (;;) {
    Phase phase;
    Time target;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      phase = phase_;
      target = target_;
    }
    try {
      run_shard_phase(shard, phase, target);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      errors_[shard] = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --remaining_;
    }
    cv_done_.notify_one();
  }
}

void ShardedEngine::run_shard_phase(std::size_t shard, Phase phase, Time t) {
  if (phase == Phase::kDrain) {
    engines_[shard]->run_until(t);
  } else {
    merge_into(shard, t);
  }
}

void ShardedEngine::run_phase(Phase phase, Time t) {
  if (engines_.size() == 1) {
    run_shard_phase(0, phase, t);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    phase_ = phase;
    target_ = t;
    remaining_ = engines_.size() - 1;
    ++generation_;
  }
  cv_work_.notify_all();
  // The coordinator doubles as shard 0's thread; its exception must not
  // skip the rendezvous, or the workers of this phase would outlive the
  // call and race the barrier work.
  std::exception_ptr first;
  try {
    run_shard_phase(0, phase, t);
  } catch (...) {
    first = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
  }
  for (std::exception_ptr& error : errors_) {
    if (!first) first = error;
    error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void ShardedEngine::merge_into(std::size_t dst, Time barrier) {
  Inbox& inbox = inboxes_[dst];
  // Every exit -- normal or by exception -- leaves this destination's
  // outbox column empty and in order.
  struct Discard {
    ShardedEngine* self;
    std::size_t dst;
    ~Discard() {
      for (std::vector<Outbox>& row : self->outboxes_) {
        row[dst].posts.clear();
        row[dst].sorted = true;
      }
    }
  } discard{this, dst};
  // Each source's run in canonical order (sorting only a run staged out
  // of order), and the earliest post over all of them.
  std::vector<Cursor>& heads = inbox.heads;
  heads.clear();
  std::size_t total = 0;
  for (std::vector<Outbox>& row : outboxes_) {
    Outbox& box = row[dst];
    if (box.posts.empty()) continue;
    if (!box.sorted) std::sort(box.posts.begin(), box.posts.end(), earlier);
    heads.push_back(Cursor{box.posts.data(), box.posts.data() + box.posts.size()});
    total += box.posts.size();
  }
  if (heads.empty()) return;
  const auto later_head = [](const Cursor& a, const Cursor& b) {
    return earlier(*b.next, *a.next);
  };
  std::make_heap(heads.begin(), heads.end(), later_head);
  // The heap's top is the earliest post: checking it alone enforces the
  // contract for the whole destination before any insert.
  if (heads.front().next->t < barrier) {
    throw std::logic_error(
        "ShardedEngine: lookahead contract violated -- event staged for "
        "t=" +
        std::to_string(heads.front().next->t) + " merged at barrier " +
        std::to_string(barrier) +
        " (delay model delivered faster than its declared floor)");
  }
  // Take the earliest run's posts up to the next run's head in one go:
  // with one source (or runs that barely interleave) this is a copy.
  Engine& engine = *engines_[dst];
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later_head);
    Cursor& run = heads.back();
    if (heads.size() == 1) {
      for (; run.next != run.end; ++run.next) {
        engine.at(run.next->t, run.next->task, merge_lane_);
      }
      heads.pop_back();
      break;
    }
    const Post& bound = *heads.front().next;
    do {
      engine.at(run.next->t, run.next->task, merge_lane_);
      ++run.next;
    } while (run.next != run.end && earlier(*run.next, bound));
    if (run.next == run.end) {
      heads.pop_back();
    } else {
      std::push_heap(heads.begin(), heads.end(), later_head);
    }
  }
  inbox.staged += total;
}

void ShardedEngine::sample_pending() {
  max_pending_ = std::max<std::uint64_t>(max_pending_, pending());
}

void ShardedEngine::run_until(Time horizon) {
  if (!std::isfinite(horizon)) {
    throw std::invalid_argument("ShardedEngine::run_until: non-finite horizon");
  }
  Time now = globals_.now();
  if (horizon < now) horizon = now;
  for (;;) {
    Time b = std::min(now + window_, horizon);
    Time tg;
    // Cut the window at the next global event so globals never lag a
    // full window behind the shards; a global scheduled at or before
    // `now` (a clamped stray) yields a zero-width round, which pops it
    // and guarantees progress on the next lap.
    if (globals_.next_time(&tg)) b = std::min(b, std::max(tg, now));
    run_phase(Phase::kDrain,
              std::nextafter(b, -std::numeric_limits<Time>::infinity()));
    run_phase(Phase::kMerge, b);
    globals_.run_until(b);
    ++windows_;
    sample_pending();
    now = b;
    if (b >= horizon) break;
  }
  // run_until is inclusive like Engine's: shard events at exactly the
  // horizon run now, and anything they stage is merged (for a later
  // call) before control returns.
  run_phase(Phase::kDrain, horizon);
  run_phase(Phase::kMerge, horizon);
  sample_pending();
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = globals_.events_executed();
  for (const std::unique_ptr<Engine>& engine : engines_) {
    total += engine->events_executed();
  }
  return total;
}

std::size_t ShardedEngine::pending() const {
  std::size_t total = globals_.pending();
  for (const std::unique_ptr<Engine>& engine : engines_) {
    total += engine->pending();
  }
  for (const std::vector<Outbox>& row : outboxes_) {
    for (const Outbox& box : row) total += box.posts.size();
  }
  return total;
}

std::uint64_t ShardedEngine::clamped_count() const {
  std::uint64_t total = globals_.clamped_count();
  for (const std::unique_ptr<Engine>& engine : engines_) {
    total += engine->clamped_count();
  }
  return total;
}

Time ShardedEngine::first_clamped_time() const {
  for (const std::unique_ptr<Engine>& engine : engines_) {
    if (engine->clamped_count() > 0) return engine->first_clamped_time();
  }
  return globals_.first_clamped_time();
}

std::uint64_t ShardedEngine::first_clamped_seq() const {
  for (const std::unique_ptr<Engine>& engine : engines_) {
    if (engine->clamped_count() > 0) return engine->first_clamped_seq();
  }
  return globals_.first_clamped_seq();
}

EngineStats ShardedEngine::stats() const {
  EngineStats s;
  s.max_pending = max_pending_;
  s.shard_windows = windows_;
  for (const Inbox& inbox : inboxes_) {
    s.shard_staged_events += inbox.staged;
  }
  return s;
}

}  // namespace gcs::sim
