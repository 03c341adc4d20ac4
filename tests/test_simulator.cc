#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/sharded.h"

namespace opera::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule_in(Time::us(10), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, Time::us(10));
  EXPECT_EQ(sim.now(), Time::us(10));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(Time::us(5), [&] {
    times.push_back(sim.now().to_us());
    sim.schedule_in(Time::us(5), [&] { times.push_back(sim.now().to_us()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{5.0, 10.0}));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_in(Time::us(i), [&] { ++fired; });
  }
  const auto n = sim.run_until(Time::us(4));
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.now(), Time::us(4));
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(Time::ms(5));
  EXPECT_EQ(sim.now(), Time::ms(5));
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::us(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(Time::us(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAtClampsToNow) {
  Simulator sim;
  sim.schedule_in(Time::us(10), [&] {
    // Scheduling in the past lands "now", not before.
    sim.schedule_at(Time::us(1), [&] { EXPECT_EQ(sim.now(), Time::us(10)); });
  });
  sim.run();
}

TEST(Simulator, CountsEvents) {
  Simulator sim;
  for (int i = 0; i < 25; ++i) sim.schedule_in(Time::us(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 25u);
}

TEST(Simulator, DispatchedFrontier) {
  constexpr std::uint64_t kMax = ~0ULL;
  Simulator sim;
  // Nothing has run: only times before zero count as dispatched.
  EXPECT_TRUE(sim.dispatched(Time::ps(-1), kMax));
  EXPECT_FALSE(sim.dispatched(Time::zero(), 0));

  // Inside a dispatch the frontier is the executing event itself.
  sim.schedule_keyed_at(Time::us(1), 10, [&] {
    EXPECT_TRUE(sim.dispatched(Time::us(1), 5));
    EXPECT_TRUE(sim.dispatched(Time::us(1), 10));
    EXPECT_FALSE(sim.dispatched(Time::us(1), 15));
    EXPECT_FALSE(sim.dispatched(Time::us(1) + Time::ps(1), 0));
  });
  // stop() leaves the frontier at the stopping event: an equal-time event
  // with a larger key has not fired.
  sim.schedule_keyed_at(Time::us(2), 10, [&] { sim.stop(); });
  sim.schedule_keyed_at(Time::us(2), 20, [] {});
  sim.schedule_keyed_at(Time::us(9), 0, [] {});
  sim.run_until(Time::us(5));
  EXPECT_EQ(sim.now(), Time::us(2));
  EXPECT_TRUE(sim.dispatched(Time::us(2), 10));
  EXPECT_FALSE(sim.dispatched(Time::us(2), 20));

  // run_until that reaches its horizon commits every event at it.
  sim.run_until(Time::us(5));
  EXPECT_TRUE(sim.dispatched(Time::us(2), 20));
  EXPECT_TRUE(sim.dispatched(Time::us(5), kMax));
  EXPECT_FALSE(sim.dispatched(Time::us(5) + Time::ps(1), 0));

  // An exclusive window commits everything before its end, nothing at it;
  // an inclusive one commits its end too.
  sim.run_window(Time::us(9));
  EXPECT_TRUE(sim.dispatched(Time::us(9) - Time::ps(1), kMax));
  EXPECT_FALSE(sim.dispatched(Time::us(9), 0));
  sim.run_window(Time::us(9), /*inclusive=*/true);
  EXPECT_TRUE(sim.dispatched(Time::us(9), kMax));
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(Simulator, DispatchedFrontierAtGlobalEvents) {
  // A global event at g runs before every shard event at g, so it must see
  // them as not yet dispatched, and everything before g as dispatched.
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    ShardedSimulator engine(shards, Time::us(1));
    const Time g = Time::us(10);
    engine.seed(0, g - Time::ps(1), [] {});
    engine.seed(0, g, [] {});
    int checks = 0;
    engine.global().schedule_at(g, [&] {
      const Simulator& shard = engine.shard(0).sim();
      EXPECT_TRUE(shard.dispatched(g - Time::ps(1), ~0ULL));
      EXPECT_FALSE(shard.dispatched(g, 0));
      EXPECT_EQ(shard.events_executed(), 1u);
      ++checks;
    });
    engine.run_until(Time::us(20));
    EXPECT_EQ(checks, 1);
    EXPECT_TRUE(engine.shard(0).sim().dispatched(Time::us(20), ~0ULL));
  }
}

}  // namespace
}  // namespace opera::sim
