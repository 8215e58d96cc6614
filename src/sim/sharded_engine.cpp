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
  outboxes_.assign(shards + 1, std::vector<std::vector<Post>>(shards));
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

void ShardedEngine::at(std::size_t shard, Time t, std::function<void()> fn) {
  engines_[shard]->at(t, std::move(fn));
}

void ShardedEngine::post(std::size_t src_ctx, std::size_t dst_shard, Time t,
                         PostKey key, std::function<void()> fn) {
  outboxes_[src_ctx][dst_shard].push_back(Post{t, key, std::move(fn)});
}

void ShardedEngine::at_global(Time t, std::function<void()> fn) {
  globals_.at(t, std::move(fn));
}

PeriodicId ShardedEngine::every_global(Time first, Duration period,
                                       std::function<void(Time)> fn) {
  return globals_.every(first, period, std::move(fn));
}

void ShardedEngine::cancel_every_global(PeriodicId id) {
  globals_.cancel_every(id);
}

void ShardedEngine::worker_loop(std::size_t shard) {
  std::uint64_t seen = 0;
  for (;;) {
    Time target;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      target = target_;
    }
    try {
      engines_[shard]->run_until(target);
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

void ShardedEngine::run_shards_to(Time target) {
  if (engines_.size() == 1) {
    engines_[0]->run_until(target);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    target_ = target;
    remaining_ = engines_.size() - 1;
    ++generation_;
  }
  cv_work_.notify_all();
  // The coordinator doubles as shard 0's thread; its exception must not
  // skip the rendezvous, or the workers of this window would outlive
  // the call and race the barrier work.
  std::exception_ptr coordinator_error;
  try {
    engines_[0]->run_until(target);
  } catch (...) {
    coordinator_error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
  }
  if (coordinator_error) std::rethrow_exception(coordinator_error);
  for (std::exception_ptr& error : errors_) {
    if (error) {
      std::exception_ptr first = error;
      for (std::exception_ptr& e : errors_) e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void ShardedEngine::merge_staged(Time barrier) {
  const std::size_t k = engines_.size();
  for (std::size_t dst = 0; dst < k; ++dst) {
    merge_buf_.clear();
    for (std::size_t src = 0; src <= k; ++src) {
      std::vector<Post>& box = outboxes_[src][dst];
      for (Post& post : box) merge_buf_.push_back(std::move(post));
      box.clear();
    }
    if (merge_buf_.empty()) continue;
    // The canonical order: gather order (which varies with K) must not
    // matter, and the key is globally unique, so this sort has no ties.
    std::sort(merge_buf_.begin(), merge_buf_.end(),
              [](const Post& a, const Post& b) {
                if (a.t != b.t) return a.t < b.t;
                if (a.key.send_t != b.key.send_t) {
                  return a.key.send_t < b.key.send_t;
                }
                if (a.key.origin != b.key.origin) {
                  return a.key.origin < b.key.origin;
                }
                return a.key.index < b.key.index;
              });
    for (Post& post : merge_buf_) {
      if (post.t < barrier) {
        throw std::logic_error(
            "ShardedEngine: lookahead contract violated -- event staged for "
            "t=" +
            std::to_string(post.t) + " merged at barrier " +
            std::to_string(barrier) +
            " (delay model delivered faster than its declared floor)");
      }
      engines_[dst]->at(post.t, std::move(post.fn));
      ++staged_;
    }
    merge_buf_.clear();
  }
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
    run_shards_to(std::nextafter(b, -std::numeric_limits<Time>::infinity()));
    merge_staged(b);
    globals_.run_until(b);
    ++windows_;
    sample_pending();
    now = b;
    if (b >= horizon) break;
  }
  // run_until is inclusive like Engine's: shard events at exactly the
  // horizon run now, and anything they stage is merged (for a later
  // call) before control returns.
  run_shards_to(horizon);
  merge_staged(horizon);
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
  for (const std::vector<std::vector<Post>>& row : outboxes_) {
    for (const std::vector<Post>& box : row) total += box.size();
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
  s.shard_staged_events = staged_;
  return s;
}

}  // namespace gcs::sim
