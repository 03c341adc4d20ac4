// Simulator: the event loop plus the simulation clock.
//
// Every event carries a 64-bit equal-time order key (see sim/event_queue.h).
// Two key modes:
//
//   * kSequential (default) — keys come from a monotone counter, so
//     equal-time events fire in schedule order: the classic single-queue
//     behavior, bit-identical to the historical simulator.
//
//   * kCausal — an event's key is derived by hashing the key of the event
//     that *scheduled* it (its causal parent) with a per-parent child
//     index; events scheduled outside any dispatch get keys from a root
//     counter. Causal keys depend only on the event's ancestry — never on
//     the order events entered a particular queue — which is what lets a
//     sharded simulation (sim/sharded.h) split one event population across
//     N queues and still resolve every equal-time tie exactly as the
//     1-shard run would. The executing event's key is tracked in a
//     thread-local dispatch frame, so a callback that schedules onto a
//     *different* simulator (a cross-shard post) still derives from its
//     true parent.
//
// The simulator also keeps a *dispatch frontier*: the (time, key) of the
// last event it dispatched, or the horizon a run or window committed.
// dispatched(at, key) asks whether an event at (at, key) lies at or before
// it — whether it would have fired by now. A DeferredWake (below) uses it
// to stand in for an event it never schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "sim/checkpoint.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace opera::sim {

// splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// alignas(64): shard Simulators run on different threads and write their
// clock and frontier every event; one cache line each keeps them from
// falsely sharing.
class alignas(64) Simulator {
 public:
  enum class KeyMode : std::uint8_t { kSequential, kCausal };

  // Key-space layout in causal mode (collisions across spaces would make
  // a tie-break depend on insertion order; spaces keep the deliberate keys
  // disjoint, and hash keys collide with probability ~2^-63):
  //   [0, 2^62)            root events (per-simulator counter)
  //   [2^62, 2^63)         externally seeded roots (ShardedSimulator::seed)
  //   [2^63, 2^64)         derived (hashed) keys
  static constexpr std::uint64_t kSeedKeyBase = 1ULL << 62;
  static constexpr std::uint64_t kDerivedKeyBit = 1ULL << 63;

  [[nodiscard]] Time now() const { return now_; }

  void set_key_mode(KeyMode mode) { key_mode_ = mode; }
  [[nodiscard]] KeyMode key_mode() const { return key_mode_; }

  // Schedules `fn` `delay` after the current time.
  EventHandle schedule_in(Time delay, EventQueue::Callback&& fn) {
    return queue_.schedule_keyed(now_ + delay, derive_key(), std::move(fn));
  }

  // Schedules `fn` at absolute time `at` (must not be in the past).
  EventHandle schedule_at(Time at, EventQueue::Callback&& fn) {
    return queue_.schedule_keyed(at < now_ ? now_ : at, derive_key(), std::move(fn));
  }

  // Schedules with an explicit order key (cross-shard delivery, seeding).
  EventHandle schedule_keyed_at(Time at, std::uint64_t key, EventQueue::Callback&& fn) {
    return queue_.schedule_keyed(at < now_ ? now_ : at, key, std::move(fn));
  }

  // schedule_keyed_at for an event nobody cancels: `fn` is built in place
  // in the queue (EventQueue::post_keyed) and no handle is returned.
  template <typename F>
  void post_keyed_at(Time at, std::uint64_t key, F&& fn) {
    queue_.post_keyed(at < now_ ? now_ : at, key, std::forward<F>(fn));
  }

  // The order key for a new event scheduled right now, per key_mode():
  // derived from the executing event's dispatch frame when inside a
  // dispatch, from the root counter otherwise.
  [[nodiscard]] std::uint64_t derive_key();

  // Runs events until the queue drains or `until` is reached, whichever is
  // first. Returns the number of events executed.
  std::uint64_t run_until(Time until);

  // Runs until the queue drains (or stop() is called).
  std::uint64_t run();

  // Epoch-window run for the sharded loop: executes events with
  // time < end (or time <= end when `inclusive`), then advances the clock
  // to `end` (never backwards). Does not honor stop() — epochs are
  // interrupted at barriers, not mid-window.
  std::uint64_t run_window(Time end, bool inclusive = false);

  // Advances the clock without running anything (barrier commit): every
  // event before `t` counts as dispatched, none at `t` yet.
  void advance_to(Time t) {
    if (t > now_) now_ = t;
    commit_through(t - Time::ps(1));
  }

  // True once an event at (at, key) has been dispatched — or would have
  // been, had it been scheduled: (at, key) lies at or before the dispatch
  // frontier. Inside a dispatch the frontier is the executing event, so an
  // equal-time event with a larger key has not fired yet. After run_until(t)
  // drains to its horizon, or an inclusive run_window(t), every event at t
  // has fired; after an exclusive run_window(t) or advance_to(t), none has.
  [[nodiscard]] bool dispatched(Time at, std::uint64_t key) const {
    return at < frontier_at_ || (at == frontier_at_ && key <= frontier_key_);
  }

  // Stops the current run() after the in-flight event returns.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stop_requested() const { return stopped_; }
  void clear_stop() { stopped_ = false; }

  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  // Checkpoint hook: clock and dispatch count. Pending events are NOT
  // digested — they are closures, and replay-based restore (sim/
  // checkpoint.h) regenerates them; the dispatch count pins that the same
  // number of events ran to reach this clock.
  void fingerprint(Fingerprint& fp) const {
    fp.mix_time(now_);
    fp.mix_u64(events_executed_);
  }

 private:
  // The executing event's key plus how many children it has scheduled so
  // far; thread-local so concurrent shard dispatches don't interleave and
  // cross-simulator schedules still see their true parent.
  struct DispatchFrame {
    std::uint64_t key = 0;
    std::uint64_t children = 0;
  };
  struct FrameGuard {
    explicit FrameGuard(DispatchFrame* frame);
    ~FrameGuard();
    DispatchFrame* prev;
  };
  static thread_local DispatchFrame* t_frame_;

  // Pops and dispatches the earliest event inside a frame.
  void dispatch_one(DispatchFrame& frame);

  // Moves the frontier to "every event at or before `t` dispatched"
  // (never backwards).
  void commit_through(Time t) {
    if (t >= frontier_at_) {
      frontier_at_ = t;
      frontier_key_ = std::numeric_limits<std::uint64_t>::max();
    }
  }

  EventQueue queue_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  KeyMode key_mode_ = KeyMode::kSequential;
  std::uint64_t events_executed_ = 0;
  std::uint64_t next_key_ = 0;  // sequential keys / causal root counter
  // Dispatch frontier; starts before time zero, where nothing is pending.
  Time frontier_at_ = Time::ps(-1);
  std::uint64_t frontier_key_ = std::numeric_limits<std::uint64_t>::max();
};

// A wake-up event that is scheduled only if something waits for it.
//
// Components that stay busy for a known span after each action (a link
// serializer, the NDP pull pacer) would schedule an "idle again" event per
// action, though usually nothing is waiting when it fires. A DeferredWake
// instead records that event's time and order key — taking the key with
// derive_key() exactly where the event would have been scheduled, so the
// keys of every later sibling are unchanged — and schedules it under that
// (time, key) only when work queues behind it. busy() asks the simulator's
// dispatch frontier whether the event would have fired yet, so a caller at
// exactly `until` sees the same outcome the scheduled event would give, in
// either key order.
class DeferredWake {
 public:
  // True until the wake's (time, key) has been dispatched.
  [[nodiscard]] bool busy(const Simulator& sim) const {
    return !sim.dispatched(until_, key_);
  }

  // Starts a busy span ending at `until` and takes the wake's key now.
  // Precondition: !busy(sim).
  void start(Simulator& sim, Time until) {
    until_ = until;
    key_ = sim.derive_key();
    armed_ = false;
  }

  // Schedules the wake to run `fn` at (until, key); at most once per span.
  // Precondition: busy(sim).
  void arm(Simulator& sim, EventQueue::Callback&& fn) {
    if (armed_) return;
    armed_ = true;
    sim.schedule_keyed_at(until_, key_, std::move(fn));
  }

 private:
  Time until_ = Time::ps(-1);  // idle: before any frontier
  std::uint64_t key_ = 0;
  bool armed_ = false;
};

}  // namespace opera::sim
