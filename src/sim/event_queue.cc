#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace opera::sim {

namespace detail {

std::uint32_t EventQueueImpl::alloc_slot() {
  if (!free_slots.empty()) {
    const std::uint32_t id = free_slots.back();
    free_slots.pop_back();
    return id;
  }
  meta.emplace_back();
  fns.emplace_back();
  return static_cast<std::uint32_t>(meta.size() - 1);
}

void EventQueueImpl::link_sorted(std::uint32_t id) {
  Bucket& b = buckets[bucket_of(meta[id].at.picoseconds())];
  const std::uint32_t t = b.tail;
  if (t == kNoSlot) {
    b.head = b.tail = id;
    meta[id].prev = meta[id].next = kNoSlot;
    return;
  }
  // Most inserts carry the latest (time, key) in their bucket, so walk
  // backward from the tail; counter-keyed equal times append O(1) because
  // the key increases.
  if (!before(id, t)) {
    meta[id].prev = t;
    meta[id].next = kNoSlot;
    meta[t].next = id;
    b.tail = id;
    return;
  }
  // Hash-keyed ties land anywhere in their run. Past kTieWalk equal-time
  // steps into a run the pop front has not reached, stop: append at the
  // end of the run and flag it for sort_run().
  const Time at = meta[id].at;
  const bool bounded = at.picoseconds() > front_at;
  std::uint32_t nxt = t;
  std::uint32_t cur = meta[t].prev;
  // The run's last slot, once the walk reaches the run.
  std::uint32_t run_last = meta[t].at == at ? t : kNoSlot;
  std::uint32_t ties = run_last == kNoSlot ? 0 : 1;
  std::uint32_t steps = 0;  // across later timestamps
  while (cur != kNoSlot && before(id, cur)) {
    if (meta[cur].at == at) {
      if (run_last == kNoSlot) run_last = cur;
      if (++ties > kTieWalk && bounded) {
        cur = run_last;
        nxt = meta[run_last].next;
        if (!meta[id].unsorted) {
          meta[id].unsorted = true;
          ++unsorted_pending;
        }
        break;
      }
    } else {
      ++steps;
    }
    nxt = cur;
    cur = meta[cur].prev;
  }
  if (steps > 16) ++long_walks;
  meta[id].prev = cur;
  meta[id].next = nxt;
  if (cur == kNoSlot) b.head = id; else meta[cur].next = id;
  if (nxt == kNoSlot) b.tail = id; else meta[nxt].prev = id;
}

void EventQueueImpl::unlink(std::uint32_t id) {
  Bucket& b = buckets[bucket_of(meta[id].at.picoseconds())];
  const std::uint32_t prev = meta[id].prev;
  const std::uint32_t next = meta[id].next;
  if (prev == kNoSlot) b.head = next; else meta[prev].next = next;
  if (next == kNoSlot) b.tail = prev; else meta[next].prev = prev;
}

void EventQueueImpl::find_min() {
  if (min_slot != kNoSlot || count == 0) return;
  // Walk buckets forward from the last known lower bound. Bucket windows
  // partition time, so the first head that lies inside its current window
  // is the global minimum.
  std::uint32_t best = kNoSlot;
  std::uint64_t gb = static_cast<std::uint64_t>(scan_from) >> width_shift;
  for (std::uint32_t i = 0; i < nb; ++i, ++gb) {
    const std::uint32_t h = buckets[gb & bucket_mask].head;
    if (h != kNoSlot &&
        static_cast<std::uint64_t>(meta[h].at.picoseconds()) < ((gb + 1) << width_shift)) {
      if (i > 32) ++long_scans;
      best = h;
      break;
    }
  }
  if (best == kNoSlot) {
    ++long_scans;
    // Nothing within one calendar year of scan_from: the pending events
    // are sparse. Take the minimum over all bucket heads and jump to it.
    for (std::uint32_t b = 0; b < nb; ++b) {
      const std::uint32_t h = buckets[b].head;
      if (h != kNoSlot && (best == kNoSlot || before(h, best))) best = h;
    }
    assert(best != kNoSlot);
  }
  const std::int64_t at_ps = meta[best].at.picoseconds();
  if (at_ps != front_at) {
    // The pop front reaches a new run: later inserts into it walk in full,
    // and any flagged event in it must be sorted in first.
    front_at = at_ps;
    if (unsorted_pending > 0) best = sort_run(best);
  }
  min_slot = best;
  scan_from = at_ps;
}

std::uint32_t EventQueueImpl::sort_run(std::uint32_t head) {
  const Time at = meta[head].at;
  run_scratch.clear();
  bool flagged = false;
  std::uint32_t after = head;
  for (; after != kNoSlot && meta[after].at == at; after = meta[after].next) {
    flagged |= meta[after].unsorted;
    run_scratch.push_back(
        {meta[after].key, static_cast<std::uint32_t>(run_scratch.size()), after});
  }
  if (!flagged) return head;
  std::sort(run_scratch.begin(), run_scratch.end(),
            [](const RunEntry& x, const RunEntry& y) {
              return x.key != y.key ? x.key < y.key : x.pos < y.pos;
            });
  // Relink the run in place between its outer neighbors.
  Bucket& b = buckets[bucket_of(at.picoseconds())];
  std::uint32_t prev = meta[head].prev;
  for (const RunEntry& e : run_scratch) {
    Meta& m = meta[e.id];
    if (m.unsorted) {
      m.unsorted = false;
      --unsorted_pending;
    }
    m.prev = prev;
    if (prev == kNoSlot) b.head = e.id; else meta[prev].next = e.id;
    prev = e.id;
  }
  meta[prev].next = after;
  if (after == kNoSlot) b.tail = prev; else meta[after].prev = prev;
  return run_scratch.front().id;
}

void EventQueueImpl::pass_flag(std::uint32_t id) {
  Meta& m = meta[id];
  m.unsorted = false;
  // An unflagged neighbor in the same run inherits the flag; otherwise the
  // count drops.
  for (const std::uint32_t n : {m.prev, m.next}) {
    if (n != kNoSlot && meta[n].at == m.at && !meta[n].unsorted) {
      meta[n].unsorted = true;
      return;
    }
  }
  --unsorted_pending;
}

void EventQueueImpl::resize() {
  const auto target = static_cast<std::uint32_t>(
      std::bit_ceil(std::max<std::size_t>(64, count)));
  // Bucket width (a power of two, so bucket_of is a shift) tracks the
  // spacing of recently fired events — the density near the queue's head,
  // which is what pop scans see. Before any pops, fall back to the pending
  // range. Equal-time bursts would drive the estimate to zero; keep the
  // previous width then.
  std::uint64_t w = std::uint64_t{1} << width_shift;
  if (pop_hist_n >= 16) {
    // Median of the recent distinct inter-dequeue gaps: robust against the
    // occasional far jump (an RTO timer firing amid microsecond-spaced
    // packet events), which would blow a mean-based estimate up by orders
    // of magnitude and collapse the dense events into a single bucket.
    std::int64_t gaps[15];
    const std::uint64_t base = pop_hist_n;  // oldest entry lives at base & 15
    for (int i = 0; i < 15; ++i) {
      gaps[i] = pop_hist[(base + static_cast<std::uint64_t>(i) + 1) & 15] -
                pop_hist[(base + static_cast<std::uint64_t>(i)) & 15];
    }
    std::nth_element(gaps, gaps + 7, gaps + 15);
    if (gaps[7] > 0) w = static_cast<std::uint64_t>(gaps[7]) * 2;
  } else if (count > 1 && max_at > min_at) {
    w = static_cast<std::uint64_t>(max_at - min_at) / count * 2;
  }
  const unsigned shift = std::min(
      static_cast<unsigned>(std::bit_width(std::max<std::uint64_t>(w, 1)) - 1), 62u);
  // The drift detectors can ask for the calendar the queue already has;
  // relinking it would change nothing.
  if (target == nb && shift == width_shift) return;
  ++rebuilds;

  std::vector<std::uint32_t> pending;
  pending.reserve(count);
  for (const Bucket& b : buckets) {
    for (std::uint32_t id = b.head; id != kNoSlot; id = meta[id].next) {
      pending.push_back(id);
    }
  }
  set_buckets(target, shift);
  for (const std::uint32_t id : pending) link_sorted(id);
  min_slot = kNoSlot;
}

namespace {

// Retired impl blocks (with their grown vector capacity) are recycled so
// that building simulator after simulator — a parameter sweep, a benchmark
// loop — pays the slab's page faults once per process, not once per run.
// Only blocks with no outstanding handles are eligible.
struct ImplPool {
  std::vector<EventQueueImpl*> retired;
  ~ImplPool() {
    for (EventQueueImpl* impl : retired) delete impl;
  }
};
thread_local ImplPool g_impl_pool;

}  // namespace

EventQueueImpl* acquire_impl() {
  auto& pool = g_impl_pool.retired;
  if (pool.empty()) return new EventQueueImpl;
  EventQueueImpl* impl = pool.back();
  pool.pop_back();
  return impl;
}

void retire_impl(EventQueueImpl* impl) {
  constexpr std::size_t kMaxRetired = 4;
  if (impl->refs == 1 && g_impl_pool.retired.size() < kMaxRetired) {
    // Reset to the fresh-queue state but keep every vector's capacity.
    impl->meta.clear();
    impl->fns.clear();
    impl->free_slots.clear();
    impl->set_buckets(64, 10);
    impl->next_seq = 0;
    impl->count = 0;
    impl->min_slot = kNoSlot;
    impl->scan_from = 0;
    impl->pop_hist_n = 0;
    impl->long_scans = 0;
    impl->long_walks = 0;
    impl->min_at = impl->max_at = 0;
    impl->rebuilds = 0;
    impl->front_at = EventQueueImpl::kNoFront;
    impl->unsorted_pending = 0;
    g_impl_pool.retired.push_back(impl);
    return;
  }
  impl->queue_alive = false;
  // Free the event storage now; the (small) control block lives on until
  // the last outstanding handle drops it.
  impl->meta.clear();
  impl->meta.shrink_to_fit();
  impl->fns.clear();
  impl->fns.shrink_to_fit();
  impl->buckets.clear();
  impl->buckets.shrink_to_fit();
  impl->free_slots.clear();
  impl->free_slots.shrink_to_fit();
  impl->run_scratch.clear();
  impl->run_scratch.shrink_to_fit();
  if (--impl->refs == 0) delete impl;
}

}  // namespace detail

void EventHandle::cancel() {
  if (impl_ == nullptr || !impl_->queue_alive) return;
  if (slot_ >= impl_->meta.size()) return;
  if (impl_->meta[slot_].generation != generation_) return;  // fired or cancelled
  if (impl_->meta[slot_].unsorted) impl_->pass_flag(slot_);
  impl_->unlink(slot_);
  impl_->fns[slot_].reset();
  impl_->release(slot_);
  --impl_->count;
  if (impl_->min_slot == slot_) impl_->min_slot = detail::kNoSlot;
}

bool EventHandle::pending() const {
  if (impl_ == nullptr || !impl_->queue_alive) return false;
  if (slot_ >= impl_->meta.size()) return false;
  return impl_->meta[slot_].generation == generation_;
}

EventQueue::~EventQueue() { detail::retire_impl(impl_); }

EventHandle EventQueue::schedule(Time at, Callback fn) {
  return schedule_keyed(at, impl_->next_seq++, std::move(fn));
}

EventHandle EventQueue::schedule_keyed(Time at, std::uint64_t key, Callback fn) {
  detail::EventQueueImpl& q = *impl_;
  const std::uint32_t id = q.alloc_slot();
  detail::EventQueueImpl::Meta& m = q.meta[id];
  m.at = at;
  m.key = key;
  m.unsorted = false;  // link_sorted() keeps flags, so resize() can too
  q.fns[id] = std::move(fn);
  q.link_sorted(id);
  ++q.count;
  const std::int64_t at_ps = at.picoseconds();
  if (q.count == 1) {
    q.min_at = q.max_at = at_ps;
  } else {
    q.min_at = std::min(q.min_at, at_ps);
    q.max_at = std::max(q.max_at, at_ps);
  }
  // Events may be scheduled before the current scan point (the raw queue
  // does not require monotonic time); keep the lower bound honest.
  if (at_ps < q.scan_from) q.scan_from = at_ps;
  // Keys are caller-chosen, so a later schedule can order *before* the
  // cached minimum even at an equal timestamp — compare the full
  // (time, key), not just the time.
  if (q.min_slot != detail::kNoSlot && q.before(id, q.min_slot)) q.min_slot = id;
  if (q.count > 2 * q.nb || q.long_walks >= 8) {
    q.long_walks = 0;
    q.resize();
  }
  return EventHandle{impl_, id, m.generation};
}

EventQueue::Callback EventQueue::take_next(Time* at, std::uint64_t* key) {
  detail::EventQueueImpl& q = *impl_;
  assert(q.count > 0);
  // Repeated long scans mean the bucket width has drifted away from the
  // event spacing (which resize() re-estimates); rebuild even though the
  // queue size has not crossed a threshold.
  if (q.long_scans >= 8) {
    q.long_scans = 0;
    q.resize();
  }
  q.find_min();
  const std::uint32_t id = q.min_slot;
  *at = q.meta[id].at;
  *key = q.meta[id].key;
  // Move the callback out and free the slot *before* it can run: the
  // callback may schedule new events, growing the slab and reusing this
  // slot.
  Callback fn = std::move(q.fns[id]);
  q.fns[id].reset();
  assert(!q.meta[id].unsorted);  // find_min() sorted its run
  q.unlink(id);
  q.release(id);
  --q.count;
  q.min_slot = detail::kNoSlot;
  const std::int64_t at_ps = at->picoseconds();
  q.scan_from = at_ps;
  if (q.pop_hist_n == 0 || q.pop_hist[(q.pop_hist_n - 1) & 15] != at_ps) {
    q.pop_hist[q.pop_hist_n & 15] = at_ps;
    ++q.pop_hist_n;
  }
  if (q.nb > 64 && q.count < q.nb / 8) q.resize();
  return fn;
}

Time EventQueue::run_next() {
  Time at;
  std::uint64_t key;
  Callback fn = take_next(&at, &key);
  fn();
  return at;
}

void EventQueue::clear() {
  detail::EventQueueImpl& q = *impl_;
  for (detail::EventQueueImpl::Bucket& b : q.buckets) {
    for (std::uint32_t id = b.head; id != detail::kNoSlot;) {
      const std::uint32_t next = q.meta[id].next;
      q.fns[id].reset();
      q.release(id);
      id = next;
    }
    b.head = b.tail = detail::kNoSlot;
  }
  q.count = 0;
  q.min_slot = detail::kNoSlot;
  q.unsorted_pending = 0;
}

}  // namespace opera::sim
