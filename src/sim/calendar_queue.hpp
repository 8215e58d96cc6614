// gcs::sim -- calendar-queue event scheduler (Brown, CACM 1988).
//
// A calendar queue hashes events into time buckets of width `w`: the
// event at time t lives in bucket floor(t/w) mod nbuckets, and dequeue
// walks the buckets like days on a wall calendar, taking only events
// that fall inside the bucket's current "year" window before moving on.
// With the width matched to the mean inter-event gap (re-estimated on
// every resize) both enqueue and dequeue-min are O(1) amortized, versus
// O(log n) for a binary heap -- the difference that lets dense dynamic
// graph runs stay event-throughput-bound instead of queue-bound.
//
// Storage (Brown's original layout): every pending event sits in one
// slab of fixed-size nodes with a LIFO free list, and a bucket is just
// the (head, tail) slab indices of a singly linked list sorted by
// (t, seq).  The slab is split in two parallel arrays indexed by the
// same slot: 24-byte key nodes (t, seq, next), which are all that
// linking, the minimum search and a resize ever walk, and the 40-byte
// Tasks, touched once on push and once on pop.  Memory is therefore
// one 64-byte slot per event at the high-water mark plus 8 bytes per
// bucket, whatever the aliasing between years: a popped event frees
// its slot at once, and a resize relinks indices without moving any
// event.
//
// Determinism contract (shared with Engine): events are totally ordered
// by (t, seq) and ties are FIFO by seq.  Bucket lists are sorted by
// exactly that key, equal times always land in the same bucket, and the
// resize rebuild preserves the key, so the pop sequence is bit-identical
// to a binary heap ordered the same way.
//
// The queue does NOT require monotone insertion: pushing an event
// earlier than the current scan window resets the scan to that event's
// bucket and year, so pop order stays correct even after a peek() that
// found the minimum past the caller's horizon (the engine then leaves it
// queued) followed by earlier insertions.
#ifndef GCS_SIM_CALENDAR_QUEUE_HPP
#define GCS_SIM_CALENDAR_QUEUE_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/task.hpp"

namespace gcs::sim {

// One scheduled callback; the unit both Engine queue implementations
// store.  Ordered by (t, seq); seq ties are FIFO.  Trivially copyable,
// so queues move it with plain copies.
struct ScheduledEvent {
  double t = 0.0;
  std::uint64_t seq = 0;
  Task task;
};

class CalendarQueue {
 public:
  CalendarQueue();

  void push(const ScheduledEvent& ev);

  // Sizes the slab for `events` pending at once, so pushes up to that
  // many never move it (see Engine::reserve).
  void reserve(std::size_t events) {
    keys_.reserve(events);
    tasks_.reserve(events);
  }

  // Key of the minimum pending event (by (t, seq)) without removing it;
  // false when empty.  Advances the scan cursor to that event's bucket,
  // so pop_min() right after takes it without walking again.
  bool peek(double* t, std::uint64_t* seq);

  // Removes the event the last peek() located and copies it into *out.
  // Precondition: that peek returned true and nothing was pushed or
  // popped since.
  void pop_min(ScheduledEvent* out);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Introspection for tests and stats.
  std::size_t bucket_count() const { return buckets_.size(); }
  std::uint64_t resizes() const { return resizes_; }
  double bucket_width() const { return width_; }
  // Bucket probes performed by locate_min (scan-loop steps plus
  // fallback-lap visits): the calendar queue's cost driver, surfaced in
  // sim::EngineStats so a mis-sized calendar shows up in result files.
  std::uint64_t scan_steps() const { return scan_steps_; }
  // Event slots the slab holds, live or free: the high-water size().
  std::size_t storage_slots() const { return keys_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  // A slot's key node: its event's (t, seq) and the next slot of its
  // bucket list (of the free list once the event has popped).
  struct Key {
    double t;
    std::uint64_t seq;
    std::uint32_t next;
  };
  static_assert(sizeof(Key) == 24, "a calendar key node is (t, seq, next)");
  // A sorted singly linked list through the slab; kNil when empty.
  // `tail` makes the common inserts -- monotone times and same-time
  // bursts -- O(1) appends.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // Bucket count is always a power of two, so the ring index is a mask.
  std::size_t bucket_index(double year) const {
    return static_cast<std::size_t>(year) & (buckets_.size() - 1);
  }
  // Integer-valued year slot of time t.  This is the single source of
  // truth for windowing: the scan tests membership with year_of too
  // (never with a recomputed product bound), so insert and dequeue can
  // never disagree about a boundary however the rounding falls.
  double year_of(double t) const { return std::floor(t * inv_width_); }
  // Links slot `i` into its bucket's sorted list, without
  // triggering a resize (push and rebuild share it).
  void link(std::uint32_t i);
  // Advances (current_bucket_, year_) to the bucket holding the global
  // minimum and returns it.  Precondition: size_ > 0.
  Bucket* locate_min();
  void resize(std::size_t new_bucket_count);
  // Estimated bucket width from the pending events' times: ~3x the mean
  // positive inter-event gap, so a bucket holds a few time slots.
  // Reorders `times`.
  double estimate_width(std::vector<double>& times) const;

  // The slab: slot i's key and its event's task.
  std::vector<Key> keys_;
  std::vector<Task> tasks_;
  std::uint32_t free_ = kNil;  // head of the free list through Key::next
  std::vector<Bucket> buckets_;
  double width_ = 1.0;
  double inv_width_ = 1.0;
  std::size_t size_ = 0;
  // Scan position: bucket `current_bucket_` is being drained of events
  // in year slot `year_` (an integer-valued double, year_of of the
  // window's times).  Invariant between operations: no pending event has
  // year_of(t) < year_.
  std::size_t current_bucket_ = 0;
  double year_ = 0.0;
  std::uint64_t resizes_ = 0;
  std::uint64_t scan_steps_ = 0;
};

}  // namespace gcs::sim

#endif  // GCS_SIM_CALENDAR_QUEUE_HPP
