#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace gcs::sim {

Engine::Engine(EnginePolicy policy) : policy_(policy) {}

void Engine::require_finite(Time t) {
  // Reject before any queue or clamp math runs, so a bad timestamp has
  // the same (absence of) effect under both policies.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("Engine::at: non-finite time " +
                                std::to_string(t));
  }
}

void Engine::schedule(Time t, const Task& task) {
  if (t < now_) {
    if (clamped_ == 0) {
      first_clamped_time_ = t;
      first_clamped_seq_ = next_seq_;
    }
    ++clamped_;
    t = now_;
  }
  const ScheduledEvent ev{t, next_seq_++, task};
  if (policy_ == EnginePolicy::kHeap) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++heap_ops_;
  } else {
    calendar_.push(ev);
  }
  max_pending_ = std::max<std::uint64_t>(max_pending_, pending());
}

void Engine::every(Time first, Duration period,
                   std::function<void(Time)> fn) {
  if (!std::isfinite(first)) {
    throw std::invalid_argument("Engine::every: non-finite first time " +
                                std::to_string(first));
  }
  if (!std::isfinite(period) || period <= 0.0) {
    // A chain with period <= 0 re-fires at a non-advancing timestamp:
    // run_until would pop it forever without progressing.
    throw std::invalid_argument("Engine::every: period must be finite and "
                                "positive, got " +
                                std::to_string(period));
  }
  const std::size_t id = chains_.size();
  chains_.push_back(Chain{period, std::move(fn)});
  at(first, [this, id, first] { fire(id, first); });
}

void Engine::fire(std::size_t id, Time t) {
  const Chain& chain = chains_[id];
  chain.fn(t);
  const Time next = t + chain.period;
  at(next, [this, id, next] { fire(id, next); });
}

bool Engine::next_time(Time* out) {
  if (policy_ == EnginePolicy::kHeap) {
    if (heap_.empty()) return false;
    *out = heap_.front().t;
    return true;
  }
  return calendar_.min_time(out);
}

void Engine::run_until(Time horizon) {
  if (policy_ == EnginePolicy::kHeap) {
    while (!heap_.empty() && heap_.front().t <= horizon) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      ++heap_ops_;
      ScheduledEvent ev = heap_.back();
      heap_.pop_back();
      now_ = std::max(now_, ev.t);
      ++executed_;
      ev.task();
    }
  } else {
    ScheduledEvent ev;
    while (calendar_.pop_if_leq(horizon, &ev)) {
      now_ = std::max(now_, ev.t);
      ++executed_;
      ev.task();
    }
  }
  now_ = std::max(now_, horizon);
}

}  // namespace gcs::sim
