#include "sim/calendar_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gcs::sim {

namespace {

constexpr std::size_t kMinBuckets = 8;
constexpr std::size_t kWidthSamples = 64;
constexpr double kMinWidth = 1e-9;

template <class A, class B>
bool earlier(const A& a, const B& b) {
  if (a.t != b.t) return a.t < b.t;
  return a.seq < b.seq;
}

}  // namespace

CalendarQueue::CalendarQueue() : buckets_(kMinBuckets) {}

void CalendarQueue::push(const ScheduledEvent& ev) {
  if (size_ + 1 > 2 * buckets_.size()) resize(2 * buckets_.size());
  std::uint32_t i = free_;
  if (i != kNil) {
    free_ = keys_[i].next;
    keys_[i] = Key{ev.t, ev.seq, kNil};
    tasks_[i] = ev.task;
  } else {
    if (keys_.size() == kNil) {
      throw std::length_error("CalendarQueue: more than 2^32 - 1 pending events");
    }
    i = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(Key{ev.t, ev.seq, kNil});
    tasks_.push_back(ev.task);
  }
  link(i);
  ++size_;
}

void CalendarQueue::link(std::uint32_t i) {
  Key& node = keys_[i];
  const double year = year_of(node.t);
  const std::size_t idx = bucket_index(year);
  Bucket& b = buckets_[idx];
  // Same-time events arrive in seq order and append at the tail in O(1);
  // the walk only pays when an event lands between pending times.
  if (b.head == kNil) {
    node.next = kNil;
    b.head = b.tail = i;
  } else if (earlier(keys_[b.tail], node)) {
    node.next = kNil;
    keys_[b.tail].next = i;
    b.tail = i;
  } else if (earlier(node, keys_[b.head])) {
    node.next = b.head;
    b.head = i;
  } else {
    // Keys are unique and the tail is later than the event, so the walk
    // stops before running off the list.
    std::uint32_t prev = b.head;
    while (!earlier(node, keys_[keys_[prev].next])) {
      prev = keys_[prev].next;
    }
    node.next = keys_[prev].next;
    keys_[prev].next = i;
  }
  // An event before the scan window would otherwise be skipped for a
  // whole lap; point the scan at it (this is what makes the queue
  // correct for non-monotone pushes).
  if (size_ == 0 || year < year_) {
    year_ = year;
    current_bucket_ = idx;
  }
}

CalendarQueue::Bucket* CalendarQueue::locate_min() {
  // Walk the calendar: a bucket front counts only if it falls inside the
  // bucket's current year window.  Events share a bucket only when their
  // year slots are congruent mod nbuckets, so a front inside the window
  // is the global minimum (equal times always share a bucket, hence ties
  // cannot span buckets).
  for (std::size_t scanned = 0; scanned < buckets_.size(); ++scanned) {
    ++scan_steps_;
    Bucket& b = buckets_[current_bucket_];
    if (b.head != kNil && year_of(keys_[b.head].t) <= year_) return &b;
    current_bucket_ = current_bucket_ + 1 == buckets_.size()
                          ? 0
                          : current_bucket_ + 1;
    year_ += 1.0;
  }
  // A whole lap without a hit: the next event is more than nbuckets
  // windows ahead.  Jump straight to the globally minimal bucket front.
  const Key* best = nullptr;
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    ++scan_steps_;
    const Bucket& b = buckets_[i];
    if (b.head == kNil) continue;
    const Key& front = keys_[b.head];
    if (best == nullptr || earlier(front, *best)) {
      best = &front;
      best_idx = i;
    }
  }
  current_bucket_ = best_idx;
  year_ = year_of(best->t);
  return &buckets_[best_idx];
}

bool CalendarQueue::peek(double* t, std::uint64_t* seq) {
  if (size_ == 0) return false;
  const Key& front = keys_[locate_min()->head];
  *t = front.t;
  *seq = front.seq;
  return true;
}

void CalendarQueue::pop_min(ScheduledEvent* out) {
  // locate_min left the scan cursor on the minimum's bucket.
  Bucket& b = buckets_[current_bucket_];
  const std::uint32_t i = b.head;
  Key& node = keys_[i];
  *out = ScheduledEvent{node.t, node.seq, tasks_[i]};
  b.head = node.next;
  if (b.head == kNil) {
    b.tail = kNil;
  } else {
    // The bucket's next event is usually the next to pop (same-time
    // bursts, nearby times): start loading its key and task now.
    __builtin_prefetch(&keys_[b.head]);
    __builtin_prefetch(&tasks_[b.head]);
  }
  node.next = free_;
  free_ = i;
  --size_;
  if (size_ < buckets_.size() / 2 && buckets_.size() > kMinBuckets) {
    resize(buckets_.size() / 2);
  }
}

void CalendarQueue::resize(std::size_t new_bucket_count) {
  std::vector<double> times;
  times.reserve(size_);
  for (const Bucket& b : buckets_) {
    for (std::uint32_t i = b.head; i != kNil; i = keys_[i].next) {
      times.push_back(keys_[i].t);
    }
  }
  const double min_t =
      times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
  width_ = estimate_width(times);
  inv_width_ = 1.0 / width_;
  std::vector<Bucket> old(new_bucket_count);
  old.swap(buckets_);
  const std::size_t start = current_bucket_;
  // Re-anchor the scan at the global minimum so the no-pending-event-
  // before-the-window invariant holds in the new geometry.
  if (!times.empty()) {
    year_ = year_of(min_t);
    current_bucket_ = bucket_index(year_);
  } else {
    year_ = 0.0;
    current_bucket_ = 0;
  }
  // Relink every node into the new geometry; no event moves.  The list
  // order comes from the (t, seq) key alone, so the walk order only sets
  // the cost: starting at the old scan position feeds the current year
  // nearly in time order, and those links are O(1) tail appends.
  for (std::size_t k = 0; k < old.size(); ++k) {
    const Bucket& b = old[(start + k) % old.size()];
    for (std::uint32_t i = b.head; i != kNil;) {
      const std::uint32_t next = keys_[i].next;
      link(i);
      i = next;
    }
  }
  ++resizes_;
}

double CalendarQueue::estimate_width(std::vector<double>& times) const {
  if (times.size() < 2) return width_;
  // Brown's rule: the width must match the event density where dequeues
  // happen -- the head of the queue -- not the average over the whole
  // horizon (a single far-future event would blow up a span/size
  // estimate).  Take the K+1 smallest times and spread ~3 events per
  // bucket across their span.
  const std::size_t k = std::min<std::size_t>(kWidthSamples, times.size() - 1);
  std::nth_element(times.begin(), times.begin() + k, times.end());
  const double kth = times[k];
  const double head_min = *std::min_element(times.begin(), times.begin() + k);
  const double head_span = kth - head_min;
  if (head_span > 0.0) {
    return std::max(3.0 * head_span / static_cast<double>(k), kMinWidth);
  }
  // The head is one same-time burst (bursts share a bucket at any width);
  // fall back to the full span so distinct time slots still spread out.
  const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
  const double full_span = *hi - *lo;
  if (full_span <= 0.0) return width_;  // everything equal: keep geometry
  return std::max(3.0 * full_span / static_cast<double>(times.size() - 1),
                  kMinWidth);
}

}  // namespace gcs::sim
