#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/simulator.h"

namespace opera::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::us(3), [&] { order.push_back(3); });
  q.schedule(Time::us(1), [&] { order.push_back(1); });
  q.schedule(Time::us(2), [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::us(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  auto h = q.schedule(Time::us(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  while (!q.empty()) q.run_next();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  int count = 0;
  auto h = q.schedule(Time::us(1), [&] { ++count; });
  q.run_next();
  EXPECT_FALSE(h.pending());
  h.cancel();  // after fire: no effect
  h.cancel();
  EXPECT_EQ(count, 1);
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.schedule(Time::us(1), [] {});
  q.schedule(Time::us(5), [] {});
  h.cancel();
  EXPECT_EQ(q.next_time(), Time::us(5));
}

TEST(EventQueue, EmptyAfterAllCancelled) {
  EventQueue q;
  auto a = q.schedule(Time::us(1), [] {});
  auto b = q.schedule(Time::us(2), [] {});
  a.cancel();
  b.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::infinity());
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::us(1), [&] {
    order.push_back(1);
    q.schedule(Time::us(2), [&] { order.push_back(2); });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunNextReturnsTimestamp) {
  EventQueue q;
  q.schedule(Time::us(7), [] {});
  EXPECT_EQ(q.run_next(), Time::us(7));
}

TEST(EventQueue, Clear) {
  EventQueue q;
  q.schedule(Time::us(1), [] {});
  q.schedule(Time::us(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeIsExactUnderCancellation) {
  EventQueue q;
  auto a = q.schedule(Time::us(1), [] {});
  auto b = q.schedule(Time::us(2), [] {});
  auto c = q.schedule(Time::us(3), [] {});
  EXPECT_EQ(q.size(), 3u);
  b.cancel();
  EXPECT_EQ(q.size(), 2u);  // no lazy-drop: cancelled events leave immediately
  a.cancel();
  c.cancel();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelThenReschedule) {
  // The transports' timer idiom: cancel the old handle, schedule a new
  // event, repeat. The old handle must stay inert even though the slab
  // slot it pointed at gets reused by the new event.
  EventQueue q;
  int fired = -1;
  EventHandle timer = q.schedule(Time::us(10), [&] { fired = 0; });
  for (int i = 1; i <= 100; ++i) {
    timer.cancel();
    timer = q.schedule(Time::us(10 + i), [&, i] { fired = i; });
  }
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 100);
}

TEST(EventQueue, StaleHandleCannotCancelSlotReuse) {
  EventQueue q;
  bool a_fired = false;
  bool b_fired = false;
  auto a = q.schedule(Time::us(1), [&] { a_fired = true; });
  a.cancel();
  // b likely reuses a's slot; a's handle must not be able to touch it.
  auto b = q.schedule(Time::us(2), [&] { b_fired = true; });
  a.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  while (!q.empty()) q.run_next();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(EventQueue, HandleOutlivesQueue) {
  EventHandle survivor;
  {
    EventQueue q;
    survivor = q.schedule(Time::us(5), [] {});
    EXPECT_TRUE(survivor.pending());
  }
  EXPECT_FALSE(survivor.pending());
  survivor.cancel();  // no crash, no effect
  EventHandle copy = survivor;
  EXPECT_FALSE(copy.pending());
}

TEST(EventQueue, CopiedHandleCancels) {
  EventQueue q;
  bool fired = false;
  auto h = q.schedule(Time::us(1), [&] { fired = true; });
  EventHandle copy = h;
  copy.cancel();
  EXPECT_FALSE(h.pending());
  while (!q.empty()) q.run_next();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, OrderMatchesReferenceUnderChurn) {
  // Deterministic total order (time, then schedule order) must survive the
  // calendar's resizes and slot reuse: run a random schedule/cancel churn
  // and compare the fire sequence against a sorted reference.
  EventQueue q;
  std::mt19937_64 rng(7);
  struct Ref {
    std::int64_t at;
    int id;
  };
  std::vector<Ref> expected;
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  int next_id = 0;
  for (int round = 0; round < 2000; ++round) {
    const auto at = static_cast<std::int64_t>(rng() % 1000);
    const int id = next_id++;
    handles.push_back(q.schedule(Time::us(at), [&fired, id] { fired.push_back(id); }));
    expected.push_back({at, id});
    if (round % 3 == 1) {
      const std::size_t victim = rng() % handles.size();
      if (handles[victim].pending()) {
        const int vid = static_cast<int>(victim);
        handles[victim].cancel();
        std::erase_if(expected, [vid](const Ref& r) { return r.id == vid; });
      }
    }
  }
  EXPECT_EQ(q.size(), expected.size());
  while (!q.empty()) q.run_next();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Ref& a, const Ref& b) { return a.at < b.at; });
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].id) << "at index " << i;
  }
}

// One seed of KeyedEqualTimeBurstsMatchReference.
void run_keyed_bursts(std::uint64_t seed) {
  // Exact pop order: (time, key, schedule #).
  using Ref = std::tuple<std::int64_t, std::uint64_t, std::uint64_t>;
  EventQueue q;
  std::mt19937_64 rng(seed);
  std::set<Ref> reference;
  std::vector<std::pair<EventHandle, Ref>> live;
  std::uint64_t next_seq = 0;
  Ref fired{};
  std::int64_t now = 0;
  const auto push = [&](std::int64_t at) {
    // About a quarter of the keys are small, so equal (time, key) pairs
    // recur and must fire in schedule order.
    const std::uint64_t key = rng() % 4 == 0 ? rng() % 4 : rng();
    const Ref r{at, key, next_seq++};
    live.emplace_back(q.schedule_keyed(Time::ps(at), key, [&fired, r] { fired = r; }), r);
    reference.insert(r);
  };
  for (int round = 0; round < 40; ++round) {
    // A burst over three shared timestamps: runs of ~15-320 events, far
    // past the queue's bounded tie walk.
    const auto base = now + 1 + static_cast<std::int64_t>(rng() % 3000);
    const std::int64_t times[3] = {base, base + 1200, base + 2400};
    const auto n = static_cast<int>(50 + rng() % 901);
    for (int i = 0; i < n; ++i) push(times[rng() % 3]);
    for (int c = 0; c < n / 8; ++c) {
      auto& [handle, r] = live[rng() % live.size()];
      if (handle.pending()) {
        handle.cancel();
        reference.erase(r);
      }
    }
    // Pop part of the queue; every fourth round drains it, shrinking the
    // calendar. Some pops schedule into the run being popped (zero delay)
    // or into a later burst's run.
    std::size_t pops = round % 4 == 3 ? q.size() : rng() % (q.size() + 1);
    for (; pops > 0; --pops) {
      const Time at = q.run_next();
      ASSERT_EQ(fired, *reference.begin()) << "round " << round;
      ASSERT_EQ(at.picoseconds(), std::get<0>(fired));
      reference.erase(reference.begin());
      now = at.picoseconds();
      const auto roll = rng() % 8;
      if (roll == 0) push(now);
      if (roll == 1) push(now + 1200);
    }
    ASSERT_EQ(q.size(), reference.size()) << "round " << round;
    std::erase_if(live, [](const auto& e) { return !e.first.pending(); });
  }
  while (!q.empty()) {
    q.run_next();
    ASSERT_EQ(fired, *reference.begin());
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
}

TEST(EventQueue, KeyedEqualTimeBurstsMatchReference) {
  // Lockstep fabrics put hundreds of hash-keyed events on one timestamp.
  // Every pop must match an online reference of the exact order through
  // duplicate keys, cancels, schedules at the current time, and calendar
  // grows and shrinks. The reference is online because events join runs
  // that are already being popped.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    run_keyed_bursts(seed);
    if (HasFatalFailure()) return;
  }
}

// One seed of FrontRunInsertsMatchReference.
void run_front_inserts(std::uint64_t seed) {
  using Ref = std::tuple<std::int64_t, std::uint64_t, std::uint64_t>;
  EventQueue q;
  std::mt19937_64 rng(seed);
  std::set<Ref> reference;
  std::vector<std::pair<EventHandle, Ref>> live;
  std::uint64_t next_seq = 0;
  Ref fired{};
  const auto push = [&](std::int64_t at) {
    // A third of the keys are tiny: duplicate (time, key) pairs inside the
    // run being popped must still fire in schedule order.
    const std::uint64_t key = rng() % 3 == 0 ? rng() % 3 : rng();
    const Ref r{at, key, next_seq++};
    live.emplace_back(q.schedule_keyed(Time::ps(at), key, [&fired, r] { fired = r; }), r);
    reference.insert(r);
  };
  const auto pop = [&] {
    const Time at = q.run_next();
    ASSERT_EQ(fired, *reference.begin());
    ASSERT_EQ(at.picoseconds(), std::get<0>(fired));
    reference.erase(reference.begin());
  };
  // A hundred runs of ~20 events, 1.2 us apart.
  for (int i = 0; i < 2000; ++i) push(1200 * (1 + static_cast<std::int64_t>(rng() % 100)));
  int cancelled = 0;
  int grown = 0;
  for (int step = 0; step < 12'000 && !q.empty(); ++step) {
    pop();
    if (::testing::Test::HasFatalFailure()) return;
    const std::int64_t now = std::get<0>(fired);
    // The simulator peeks at the next time after every event, which can
    // move the pop front past `now` before the inserts below.
    if (!q.empty() && rng() % 2 == 0) {
      ASSERT_EQ(q.next_time().picoseconds(), std::get<0>(*reference.begin()));
    }
    // A push into a later run, before or after the re-arms below: it may
    // land on the run the peek made the front, ahead of inserts at `now`.
    const bool later = rng() % 2 == 0;
    const bool later_first = rng() % 2 == 0;
    const std::int64_t later_at = now + 1200 * (1 + static_cast<std::int64_t>(rng() % 3));
    if (later && later_first) push(later_at);
    // Re-arms into the run being popped, as lockstep serializers do (0.75
    // per pop on average, so each run still drains).
    const auto n = rng() % 8 < 3 ? 1 + rng() % 3 : 0;
    for (std::uint64_t k = 0; k < n; ++k) push(now);
    if (n > 0 && rng() % 4 == 0) {
      // Cancel one of them before it fires.
      live.back().first.cancel();
      reference.erase(live.back().second);
      ++cancelled;
    }
    if (later && !later_first) push(later_at);
    if (step % 5000 == 2000) {
      // Grow the calendar until it rebuilds while those inserts wait.
      push(now);
      const std::uint64_t rebuilds = q.rebuilds();
      while (q.rebuilds() == rebuilds) push(now + 1 + static_cast<std::int64_t>(rng() % 200'000));
      ++grown;
    }
    ASSERT_EQ(q.size(), reference.size()) << "step " << step;
    if (step % 256 == 0) std::erase_if(live, [](const auto& e) { return !e.first.pending(); });
  }
  while (!q.empty()) {
    pop();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(cancelled, 100);
  EXPECT_EQ(grown, 2);
}

TEST(EventQueue, FrontRunInsertsMatchReference) {
  // Inserts at the time being popped skip the run walk (a side heap holds
  // them). Pops must still match the exact (time, key, schedule order)
  // reference through duplicate keys, cancels of such inserts, and
  // calendar rebuilds while they are pending.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    run_front_inserts(seed);
    if (HasFatalFailure()) return;
  }
}

// `ports` hash-keyed events, each re-armed 1.2 us after it fires: every
// timestamp holds a run of `ports` events, as when switch ports serialize
// MTU packets in lockstep.
// With `rearm_now`, each event first re-arms at its own time (the
// serializer wake a waiting packet makes real), and that one re-arms
// 1.2 us later: half of every run is inserted while the run is popped.
struct Lockstep {
  EventQueue q;
  std::uint64_t fired = 0;
  bool rearm_now;
  explicit Lockstep(std::uint32_t ports, bool rearm_now = false) : rearm_now(rearm_now) {
    for (std::uint32_t p = 0; p < ports; ++p) arm(p, Time::ns(1200), rearm_now);
  }
  void arm(std::uint32_t port, Time at, bool now_next) {
    q.schedule_keyed(at, mix64((fired << 16) | port), [this, port, at, now_next] {
      ++fired;
      if (now_next) {
        arm(port, at, false);
      } else {
        arm(port, at + Time::ns(1200), rearm_now);
      }
    });
  }
};

TEST(EventQueue, LockstepTiesDoNotThrashRebuilds) {
  // No bucket width splits an equal-time run, so long walks within one
  // must not read as a too-wide calendar and trigger rebuilds.
  Lockstep lockstep(648);
  while (lockstep.fired < 100'000) lockstep.q.run_next();
  EXPECT_LE(lockstep.q.rebuilds(), 16u);
}

TEST(EventQueue, LockstepRearmsAtNowDoNotThrashRebuilds) {
  // The same, with half of each run scheduled into it while it is popped.
  Lockstep lockstep(648, /*rearm_now=*/true);
  while (lockstep.fired < 100'000) lockstep.q.run_next();
  EXPECT_LE(lockstep.q.rebuilds(), 16u);
}

}  // namespace
}  // namespace opera::sim
