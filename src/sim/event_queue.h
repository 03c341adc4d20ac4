// The discrete-event core: a cancellable calendar-queue event scheduler.
//
// Events fire in (time, order-key) order. schedule() assigns keys from a
// strictly increasing counter, so events at equal timestamps fire in
// schedule order — the classic deterministic single-queue behavior.
// schedule_keyed() lets the caller pick the 64-bit key instead; the
// sharded simulator uses this to give every event a key derived from its
// *causal parent* rather than from queue arrival order, which makes the
// equal-time tie-break independent of how the simulation is partitioned
// into shards (see sim/sharded.h).
//
// Layout (every packet hop schedules and fires at least one event — its
// arrival — so this is the single hottest structure in the simulator):
//   * a slab of reusable slots holds each pending event; freed slots go on
//     a free list and are reused, so steady-state scheduling performs no
//     heap allocation (callbacks use SmallCallback's inline buffer). The
//     slab is split into a compact 32-byte metadata array (time, key,
//     links, generation — everything ordering touches) and a parallel
//     callback array touched only at schedule and fire, which keeps the
//     working set of ordering operations small;
//   * slots are threaded into a calendar of time buckets (Brown '88, the
//     structure htsim-class simulators use): bucket = (t / width) mod nb,
//     each bucket a doubly-linked list sorted by (time, key), except that
//     a run the pop front has not reached may be out of key order (next
//     item). Schedule and cancel are O(1) expected; pop scans forward from
//     the last-popped time and the bucket count/width self-tune to the
//     pending-event density, so dequeue is O(1) amortized rather than
//     O(log n);
//   * equal-time runs (a *run* is all pending events at one timestamp)
//     stay cheap when their keys are hashes, as the sharded simulator's
//     causal keys are. An insert into a run later than the one being
//     popped walks at most kTieWalk equal-time steps, then appends at the
//     end of its run and is flagged. When the pop front reaches a run
//     holding a flag, the run is sorted once by (key, list position) and
//     relinked. List position among equal (time, key) is schedule order,
//     so the order stays exact. A count of pending flags gates the check,
//     so queues with short runs never walk one. The width-drift detector
//     counts only walk steps across distinct timestamps, since no bucket
//     width splits a run;
//   * an insert into the run being popped that cannot append at its
//     bucket's tail goes to a side min-heap ordered by (key, schedule
//     order) instead of walking the run (lockstep ports re-arm their
//     serializers at exactly the current time). Pops merge the heap with
//     the calendar's run; every calendar event of that run was scheduled
//     before every heap event, so an equal key pops from the calendar
//     first. An insert before that run (a peek can move the front past
//     the clock) spills the heap back into the calendar;
//   * cancellation unlinks the slot eagerly — size(), empty() and
//     next_time() are exact, with no lazy-drop pass;
//   * handles address their slot by {id, generation}; a stale generation
//     means the event already fired or was cancelled, so handles are cheap
//     to copy, idempotent to cancel, and safe to use after the event (or
//     the whole queue) is gone. The refcounted control block is
//     single-threaded (no atomics): the simulator is not thread-safe.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/small_callback.h"
#include "sim/time.h"

namespace opera::sim {

namespace detail {

inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

// The queue's whole state, heap-allocated and refcounted so EventHandles
// can outlive the EventQueue: the queue's destructor releases the event
// storage but the block itself stays until the last handle drops it.
struct EventQueueImpl {
  // Ordering metadata only — kept to 32 bytes so bucket walks and pop
  // scans stay in cache even with 10^5 pending events.
  struct Meta {
    Time at;
    // Equal-time tie-break, compared as a plain 64-bit integer. Internal
    // (schedule()) keys come from a monotone counter; external
    // (schedule_keyed()) keys are caller-chosen.
    std::uint64_t key = 0;
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
    std::uint32_t generation = 0;
    // Set by a bounded tie walk: this event's run may be out of key order
    // (see kTieWalk). Fits in the padding after `generation`.
    bool unsorted = false;
    // In front_heap, not in a bucket list.
    bool in_front = false;
  };
  static_assert(sizeof(Meta) == 32);
  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  std::vector<Meta> meta;
  std::vector<SmallCallback> fns;         // parallel to `meta`
  std::vector<std::uint32_t> free_slots;  // LIFO of reusable slot ids
  std::vector<Bucket> buckets;            // size nb (a power of two)
  unsigned width_shift = 10;              // bucket span = 2^width_shift ps
  std::uint32_t nb = 0;
  std::uint32_t bucket_mask = 0;
  std::uint64_t next_seq = 0;
  std::size_t count = 0;
  std::uint32_t min_slot = kNoSlot;   // cached earliest slot (kNoSlot: unknown)
  std::int64_t scan_from = 0;         // lower bound on the earliest pending time
  // Recent *distinct* dequeue times, for width tuning: equal-time bursts
  // carry no spacing information and would drive the estimate to zero.
  std::int64_t pop_hist[16] = {};
  std::uint64_t pop_hist_n = 0;
  // Width-drift detectors (the width only self-tunes on rebuild, and a
  // steady-state queue never crosses the size thresholds): pops whose
  // bucket scan ran long mean the width is too narrow for the event
  // spacing; schedules whose sorted-insert walk crossed many *distinct*
  // timestamps mean it is too wide (events piling into few buckets).
  // Either way, rebuild. Equal-time steps do not count: no width splits a
  // run.
  std::uint32_t long_scans = 0;
  std::uint32_t long_walks = 0;
  std::int64_t min_at = 0, max_at = 0;  // pending-time range (monotone approx)
  std::uint64_t rebuilds = 0;           // resize() calls that relinked

  // Equal-time runs. `front_at` is the timestamp of the run being popped
  // (the last one find_min() reached); every flagged event lies later.
  // `unsorted_pending` counts pending flagged events; find_min() walks a
  // newly reached run only while it is nonzero.
  static constexpr std::uint32_t kTieWalk = 16;
  static constexpr std::int64_t kNoFront = std::numeric_limits<std::int64_t>::min();
  std::int64_t front_at = kNoFront;
  std::size_t unsorted_pending = 0;
  struct RunEntry {
    std::uint64_t key;
    std::uint32_t pos;  // list position: schedule order among equal keys
    std::uint32_t id;
  };
  std::vector<RunEntry> run_scratch;  // sort_run()'s buffer, reused
  // Inserts into the run at front_at, as a min-heap by (key, pos); `pos`
  // counts heap inserts and restarts when the heap drains. `count` does
  // not include them.
  std::vector<RunEntry> front_heap;
  std::uint32_t front_pos = 0;

  std::uint32_t refs = 1;  // queue + live handles
  bool queue_alive = true;

  EventQueueImpl() { set_buckets(64, 10); }

  void set_buckets(std::uint32_t n, unsigned shift) {
    nb = n;
    bucket_mask = n - 1;
    width_shift = shift;
    buckets.assign(n, Bucket{});
  }
  [[nodiscard]] std::uint32_t bucket_of(std::int64_t at_ps) const {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(at_ps) >> width_shift) & bucket_mask);
  }
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Meta& x = meta[a];
    const Meta& y = meta[b];
    if (x.at != y.at) return x.at < y.at;
    return x.key < y.key;
  }

  [[nodiscard]] std::size_t pending() const { return count + front_heap.size(); }
  std::uint32_t alloc_slot();
  void link_sorted(std::uint32_t id);
  // Puts an insert at front_at into front_heap unless it appends at its
  // bucket's tail; returns whether it did.
  bool push_front(std::uint32_t id);
  // Removes front_heap's top / `id` from front_heap.
  void pop_front();
  void erase_front(std::uint32_t id);
  // Moves front_heap's events into the calendar, in pop order.
  void spill_front();
  void unlink(std::uint32_t id);
  void release(std::uint32_t id) {
    ++meta[id].generation;
    free_slots.push_back(id);
  }
  // Ensures min_slot names the earliest calendar event (kNoSlot when the
  // calendar is empty). The pop front reaches its run only once
  // front_heap has drained.
  void find_min();
  // The earliest calendar slot, by a bucket scan. Precondition: count > 0.
  [[nodiscard]] std::uint32_t scan_min();
  // The next event to pop and whether it sits in front_heap. Precondition:
  // pending() > 0.
  [[nodiscard]] std::uint32_t next_slot(bool* from_front);
  // Sorts the run starting at `head` if it holds a flagged event; returns
  // the run's (possibly new) first slot.
  std::uint32_t sort_run(std::uint32_t head);
  // Drops `id`'s flag before it leaves the queue, handing it to a run
  // neighbor so the rest of the run is still sorted when reached.
  void pass_flag(std::uint32_t id);
  void resize();
};

// Fetches a (possibly recycled) impl block / retires one at destruction.
EventQueueImpl* acquire_impl();
void retire_impl(EventQueueImpl* impl);

}  // namespace detail

class EventQueue;

// Handle returned by EventQueue::schedule(); lets the caller cancel a
// pending event. Handles are cheap to copy and outliving the queue is safe.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other)
      : EventHandle(other.impl_, other.slot_, other.generation_) {}
  EventHandle(EventHandle&& other) noexcept
      : impl_(other.impl_), slot_(other.slot_), generation_(other.generation_) {
    other.impl_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& other) {
    if (this != &other) {
      EventHandle tmp(other);
      *this = static_cast<EventHandle&&>(tmp);
    }
    return *this;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      drop();
      impl_ = other.impl_;
      slot_ = other.slot_;
      generation_ = other.generation_;
      other.impl_ = nullptr;
    }
    return *this;
  }
  ~EventHandle() { drop(); }

  // Cancels the event if it has not fired yet. Idempotent.
  void cancel();

  [[nodiscard]] bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(detail::EventQueueImpl* impl, std::uint32_t slot, std::uint32_t generation)
      : impl_(impl), slot_(slot), generation_(generation) {
    if (impl_ != nullptr) ++impl_->refs;
  }
  void drop() {
    if (impl_ != nullptr && --impl_->refs == 0) delete impl_;
    impl_ = nullptr;
  }

  detail::EventQueueImpl* impl_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  using Callback = SmallCallback;

  EventQueue() : impl_(detail::acquire_impl()) {}
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `at`. Equal-time events fire in
  // schedule order (an internal counter supplies the order key).
  EventHandle schedule(Time at, Callback fn);

  // Schedules `fn` at `at` with a caller-chosen equal-time order key.
  // Events with equal (at, key) fire in schedule order.
  EventHandle schedule_keyed(Time at, std::uint64_t key, Callback fn);

  // Exact: cancelled events leave the queue immediately.
  [[nodiscard]] bool empty() const { return impl_->pending() == 0; }
  [[nodiscard]] std::size_t size() const { return impl_->pending(); }

  // Time of the earliest event; Time::infinity() if none.
  [[nodiscard]] Time next_time() const {
    if (impl_->pending() == 0) return Time::infinity();
    bool from_front;
    return impl_->meta[impl_->next_slot(&from_front)].at;
  }

  // Pops and runs the earliest event; returns its timestamp.
  // Precondition: !empty().
  Time run_next();

  // Pops the earliest event *without* running it, returning its callback
  // and filling its timestamp and order key. The Simulator uses this to
  // publish the event's key (for causal key derivation) before dispatch.
  // Precondition: !empty().
  [[nodiscard]] Callback take_next(Time* at, std::uint64_t* key);

  // Drops all pending events.
  void clear();

  // Calendar rebuilds so far (grow, shrink and width-drift). Read-only: an
  // observation for tests and profiles, not a tuning knob.
  [[nodiscard]] std::uint64_t rebuilds() const { return impl_->rebuilds; }

 private:
  detail::EventQueueImpl* impl_;
};

}  // namespace opera::sim
