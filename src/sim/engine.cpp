#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace gcs::sim {

Engine::Engine(EnginePolicy policy) : policy_(policy) {}

void Engine::reject_non_finite(Time t) {
  throw std::invalid_argument("Engine::at: non-finite time " +
                              std::to_string(t));
}

void EventLane::add_block() {
  if (spare_.empty()) {
    owned_.push_back(std::make_unique<ScheduledEvent[]>(kBlockEvents));
    spare_.push_back(owned_.back().get());
  }
  active_.push_back(spare_.back());
  spare_.pop_back();
  tail_ = 0;
}

void EventLane::pop_front() {
  --size_;
  if (++head_ == kBlockEvents) {
    spare_.push_back(active_[first_++]);
    head_ = 0;
    if (first_ == active_.size()) {
      active_.clear();
      first_ = 0;
    } else if (2 * first_ >= active_.size()) {
      active_.erase(active_.begin(),
                    active_.begin() + static_cast<std::ptrdiff_t>(first_));
      first_ = 0;
    }
  } else if (size_ == 0) {
    // Drained within a block (the tail's): restart it from the top.
    head_ = tail_ = 0;
  }
}

void Engine::reserve(std::size_t events) {
  if (policy_ == EnginePolicy::kHeap) {
    heap_.reserve(events);
  } else {
    calendar_.reserve(events);
  }
}

Engine::Lane Engine::add_lane() {
  lanes_.emplace_back();
  return static_cast<Lane>(lanes_.size() - 1);
}

void Engine::schedule(Time t, const Task& task, Lane lane) {
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
  } else if (lane != kNoLane &&
             (lanes_[lane].empty() || lanes_[lane].back_t() <= t)) {
    // seq only grows, so an event at or after the tail's time is after
    // the tail in (t, seq) order as well.
    lanes_[lane].push_back(ev);
    ++lane_events_;
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
  std::uint64_t seq;
  bool any = calendar_.peek(out, &seq);
  for (const EventLane& lane : lanes_) {
    if (!lane.empty() && (!any || lane.front().t < *out)) {
      *out = lane.front().t;
      any = true;
    }
  }
  return any;
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
    now_ = std::max(now_, horizon);
    return;
  }
  // The calendar's minimum is located once and reused until the
  // calendar changes: a popped lane event leaves it in place unless its
  // callback pushed onto the calendar (pushes only grow its size).
  double cal_t = 0.0;
  std::uint64_t cal_seq = 0;
  bool cal_any = false;
  bool cal_located = false;
  ScheduledEvent ev;
  for (;;) {
    if (!cal_located) {
      cal_any = calendar_.peek(&cal_t, &cal_seq);
      cal_located = true;
    }
    EventLane* from = nullptr;
    Time t = cal_t;
    std::uint64_t seq = cal_seq;
    bool any = cal_any;
    for (EventLane& lane : lanes_) {
      if (lane.empty()) continue;
      const ScheduledEvent& front = lane.front();
      if (!any || front.t < t || (front.t == t && front.seq < seq)) {
        from = &lane;
        t = front.t;
        seq = front.seq;
        any = true;
      }
    }
    if (!any || t > horizon) break;
    if (from != nullptr) {
      ev = from->front();
      from->pop_front();
      --lane_events_;
    } else {
      calendar_.pop_min(&ev);
      cal_located = false;
    }
    const std::size_t cal_size = calendar_.size();
    now_ = std::max(now_, ev.t);
    ++executed_;
    ev.task();
    if (calendar_.size() != cal_size) cal_located = false;
  }
  now_ = std::max(now_, horizon);
}

}  // namespace gcs::sim
