#include "sim/sharded.h"

#include <algorithm>
#include <stdexcept>

namespace opera::sim {

namespace {
thread_local int t_current_shard = -1;

struct ShardScope {
  explicit ShardScope(int s) : prev(t_current_shard) { t_current_shard = s; }
  ~ShardScope() { t_current_shard = prev; }
  int prev;
};
}  // namespace

int current_shard() { return t_current_shard; }

void ShardContext::mail(ShardContext& dst, Time at, std::uint64_t key,
                        SmallCallback&& fn) {
  owner_->push_mail(shard_, dst.shard_, at, key, std::move(fn));
}

ShardedSimulator::ShardedSimulator(int num_shards, Time lookahead)
    : lookahead_(lookahead) {
  assert(num_shards >= 1);
  if (num_shards > 1 && !(lookahead > Time::zero())) {
    // Without positive lookahead the epoch loop cannot advance (each
    // window [t, t+L) would be empty) — fail loudly rather than livelock
    // in release builds.
    throw std::invalid_argument(
        "ShardedSimulator: multi-shard execution requires a positive "
        "conservative lookahead (the minimum cross-shard event latency)");
  }
  global_.set_key_mode(Simulator::KeyMode::kCausal);
  shards_.reserve(static_cast<std::size_t>(num_shards));
  contexts_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Simulator>());
    shards_.back()->set_key_mode(Simulator::KeyMode::kCausal);
    contexts_.push_back(ShardContext(*shards_.back(), this, s));
  }
  mailboxes_.resize(static_cast<std::size_t>(num_shards) *
                    static_cast<std::size_t>(num_shards));
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::seed(int s, Time at, SmallCallback&& fn) {
  shards_[static_cast<std::size_t>(s)]->schedule_keyed_at(
      at, Simulator::kSeedKeyBase + seed_count_++, std::move(fn));
}

void ShardedSimulator::push_mail(int src, int dst, Time at, std::uint64_t key,
                                 SmallCallback&& fn) {
  // Conservative-lookahead contract: during a phase, a cross-shard event
  // may not land before the horizon every shard is already running to.
  assert(!in_phase_ || at >= phase_end_);
  box(src, dst).out.push_back(MailEntry{at, key, std::move(fn)});
}

std::size_t ShardedSimulator::swap_mailboxes() {
  std::size_t pending = 0;
  for (Mailbox& m : mailboxes_) {
    if (!m.out.empty()) {
      assert(m.in.empty());
      m.in.swap(m.out);
      pending += m.in.size();
    }
  }
  return pending;
}

std::size_t ShardedSimulator::mail_pending() const {
  std::size_t n = 0;
  for (const Mailbox& m : mailboxes_) n += m.out.size() + m.in.size();
  return n;
}

void ShardedSimulator::drain_inboxes(int dst) {
  Simulator& sim = *shards_[static_cast<std::size_t>(dst)];
  for (int src = 0; src < num_shards(); ++src) {
    Mailbox& m = box(src, dst);
    // Insertion order is irrelevant: the calendar queue orders by
    // (time, key), the canonical merge.
    for (MailEntry& e : m.in) {
      sim.schedule_keyed_at(e.at, e.key, std::move(e.fn));
    }
    m.in.clear();
  }
}

void ShardedSimulator::run_phase(Time end, bool inclusive) {
  const int S = num_shards();
  mail_delivered_ += swap_mailboxes();
  ++epochs_;
  phase_end_ = end;
  in_phase_ = true;
  if (S == 1) {
    const ShardScope scope(0);
    drain_inboxes(0);
    shards_[0]->run_window(end, inclusive);
  } else {
    // Pinned: shard s runs on the same pool thread every epoch, so its
    // queue, its nodes and the thread-local free lists it feeds stay warm.
    WorkerPool::shared().run_pinned(static_cast<std::size_t>(S), [&](std::size_t s) {
      const ShardScope scope(static_cast<int>(s));
      drain_inboxes(static_cast<int>(s));
      shards_[s]->run_window(end, inclusive);
    });
  }
  in_phase_ = false;
  if (barrier_hook_) barrier_hook_();
}

std::uint64_t ShardedSimulator::run_until(Time t) {
  const std::uint64_t before = events_executed();
  global_.clear_stop();
  const int S = num_shards();
  for (;;) {
    const Time committed = global_.now();
    // Global events due at the committed time run first — before any shard
    // event with the same timestamp (the barrier-aligned rule).
    if (!global_.queue().empty() && global_.queue().next_time() <= committed) {
      global_.run_window(committed, /*inclusive=*/true);
    }
    if (global_.stop_requested()) {
      // Early stop: leave the clock at the stop point (run_with_progress
      // reads it as ended_at), exactly like Simulator::run_until.
      return events_executed() - before;
    }
    if (committed >= t) {
      // Final inclusive phase: events at exactly `t` (matching
      // Simulator::run_until's <= horizon semantics).
      run_phase(t, /*inclusive=*/true);
      break;
    }

    const Time next_global = global_.queue().empty() ? Time::infinity()
                                                     : global_.queue().next_time();
    Time end = std::min(t, next_global);
    if (S > 1 && committed + lookahead_ < end) end = committed + lookahead_;

    // Idle fast-forward: with no mail in flight, nothing can happen before
    // the earliest pending shard event — commit straight to it instead of
    // walking there in empty lookahead-sized epochs.
    if (mail_pending() == 0) {
      Time earliest = Time::infinity();
      for (const auto& sh : shards_) {
        if (!sh->queue().empty()) earliest = std::min(earliest, sh->queue().next_time());
      }
      if (earliest >= end) {
        const Time jump = std::min(std::min(t, next_global), earliest);
        if (jump > end) end = jump;
        if (earliest > end) {
          // Nothing to run this epoch anywhere: just commit the clock.
          global_.advance_to(end);
          for (auto& sh : shards_) sh->advance_to(end);
          continue;
        }
      }
    }

    run_phase(end, /*inclusive=*/false);
    global_.advance_to(end);
  }
  global_.advance_to(t);
  return events_executed() - before;
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t n = global_.events_executed();
  for (const auto& sh : shards_) n += sh->events_executed();
  return n;
}

}  // namespace opera::sim
