// ShardedSimulator unit tests: mailbox ordering, epoch-horizon safety,
// global-event alignment, idle fast-forward, and the worker pool.
#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/parallel.h"
#include "sim/worker_pool.h"

namespace opera::sim {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, NestedRunExecutesInline) {
  WorkerPool pool(4);
  std::atomic<int> total{0};
  pool.run(8, [&](std::size_t) {
    // A task that itself fans out must not deadlock on the pool.
    WorkerPool::shared().run(16, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(WorkerPool, PropagatesFirstException) {
  WorkerPool pool(3);
  EXPECT_THROW(
      pool.run(64, [&](std::size_t i) {
        if (i == 13) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(WorkerPool, RunPinnedKeepsEachIndexOnOneThread) {
  // Index i runs on thread i % size() on every call; the caller is thread 0.
  WorkerPool pool(3);
  constexpr std::size_t kN = 7;
  std::vector<std::thread::id> first(kN);
  std::vector<int> moved(kN, 0);
  for (int call = 0; call < 50; ++call) {
    pool.run_pinned(kN, [&](std::size_t i) {
      const std::thread::id self = std::this_thread::get_id();
      if (call == 0) first[i] = self;
      if (first[i] != self) ++moved[i];
    });
  }
  EXPECT_EQ(moved, std::vector<int>(kN, 0));
  EXPECT_EQ(first[0], std::this_thread::get_id());
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      EXPECT_EQ(first[i] == first[j], i % pool.size() == j % pool.size())
          << i << "," << j;
    }
  }
}

TEST(ParallelFor, StillCoversRangeOnSharedPool) {
  std::vector<int> out(513, 0);
  parallel_for(out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ShardedSimulator, RejectsZeroLookaheadMultiShard) {
  // Zero lookahead would make every epoch window empty — the loop could
  // never advance. Must fail loudly (also in release), not livelock.
  EXPECT_THROW(ShardedSimulator(2, Time::zero()), std::invalid_argument);
  ShardedSimulator single(1, Time::zero());  // 1 shard needs no lookahead
  int fired = 0;
  single.seed(0, Time::us(1), [&] { ++fired; });
  single.run_until(Time::us(2));
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSimulator, CrossShardPostDeliversAtExactTime) {
  ShardedSimulator engine(2, Time::us(1));
  std::vector<std::pair<int, Time>> log;
  engine.seed(0, Time::us(3), [&] {
    engine.shard(0).post(engine.shard(1), engine.shard(0).now() + Time::us(1),
                         [&] { log.emplace_back(1, engine.shard(1).now()); });
    log.emplace_back(0, engine.shard(0).now());
  });
  engine.run_until(Time::us(10));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<int, Time>{0, Time::us(3)}));
  EXPECT_EQ(log[1], (std::pair<int, Time>{1, Time::us(4)}));
}

TEST(ShardedSimulator, HorizonMinusEpsilonIsDeliveredNextEpochNeverDropped) {
  // An event sent cross-shard for the earliest legal instant — exactly one
  // lookahead ahead, i.e. the next epoch's horizon — must execute, at its
  // exact timestamp, even when the sender fires at the very end of its
  // epoch (the horizon - epsilon case).
  const Time lookahead = Time::us(1);
  ShardedSimulator engine(2, lookahead);
  std::vector<Time> delivered;
  // Sender event just below an epoch boundary: epochs start at 0, so run
  // one shard event at 999ns (inside epoch [0, 1us)).
  const Time send_at = Time::ns(999);
  engine.seed(0, send_at, [&] {
    engine.shard(0).post(engine.shard(1), send_at + lookahead,
                         [&] { delivered.push_back(engine.shard(1).now()); });
  });
  engine.run_until(Time::us(5));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], send_at + lookahead);
}

TEST(ShardedSimulator, EqualTimeCrossShardEventsOrderByKeyNotArrival) {
  // Two shards each send the other an equal-time event; a third local
  // event ties with them. Execution order at the shared timestamp must be
  // the (deterministic) key order, not mailbox-drain or schedule order —
  // run twice with different shard counts mapping the same domains and
  // compare.
  auto run_once = [](int shards) {
    ShardedSimulator engine(shards, Time::us(1));
    std::vector<int> order;
    const Time t0 = Time::us(2);
    const Time at = Time::us(4);
    const int dst_shard = shards > 1 ? 1 : 0;
    engine.seed(0, t0, [&engine, &order, at, dst_shard] {
      engine.shard(0).post(engine.shard(dst_shard), at,
                           [&order] { order.push_back(100); });
    });
    engine.seed(dst_shard, t0, [&engine, &order, at, dst_shard] {
      engine.shard(dst_shard).post(engine.shard(dst_shard), at,
                                   [&order] { order.push_back(200); });
    });
    engine.seed(dst_shard, at, [&order] { order.push_back(300); });
    engine.run_until(Time::us(10));
    return order;
  };
  const auto sharded = run_once(2);
  const auto single = run_once(1);
  ASSERT_EQ(sharded.size(), 3u);
  EXPECT_EQ(sharded, single);
}

TEST(ShardedSimulator, GlobalEventsRunBeforeShardEventsAtSameTime) {
  ShardedSimulator engine(2, Time::us(1));
  std::vector<int> order;
  const Time at = Time::us(3);
  engine.seed(1, at, [&] { order.push_back(2); });
  engine.global().schedule_at(at, [&] { order.push_back(1); });
  engine.run_until(Time::us(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedSimulator, RunUntilIsInclusiveAtHorizon) {
  ShardedSimulator engine(2, Time::us(1));
  std::atomic<int> fired{0};  // both shards fire in one parallel phase
  engine.seed(0, Time::us(7), [&] { ++fired; });
  engine.seed(1, Time::us(7), [&] { ++fired; });
  engine.run_until(Time::us(7));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), Time::us(7));
}

TEST(ShardedSimulator, IdleGapsFastForwardWithoutDriftingTimestamps) {
  // Sparse events many lookaheads apart must still fire at exact times
  // (the idle fast-forward may not skip or round them).
  ShardedSimulator engine(2, Time::ns(500));
  std::vector<Time> fired;
  engine.seed(0, Time::ms(2), [&] { fired.push_back(engine.shard(0).now()); });
  engine.seed(1, Time::ms(5), [&] { fired.push_back(engine.shard(1).now()); });
  const std::uint64_t events = engine.run_until(Time::ms(6));
  EXPECT_EQ(events, 2u);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], Time::ms(2));
  EXPECT_EQ(fired[1], Time::ms(5));
}

TEST(ShardedSimulator, StopFromGlobalEventHaltsEpochLoop) {
  ShardedSimulator engine(2, Time::us(1));
  int shard_events = 0;
  for (int i = 1; i <= 100; ++i) {
    engine.seed(i % 2, Time::us(i), [&] { ++shard_events; });
  }
  engine.global().schedule_at(Time::us(10), [&] { engine.global().stop(); });
  engine.run_until(Time::ms(1));
  // Events strictly before the stop instant ran; the tail did not.
  EXPECT_LT(shard_events, 100);
  EXPECT_GE(shard_events, 9);
  EXPECT_LE(engine.now(), Time::us(10));
}

TEST(ShardedSimulator, BarrierHookRunsBetweenEpochs) {
  ShardedSimulator engine(2, Time::us(1));
  int hooks = 0;
  engine.set_barrier_hook([&] { ++hooks; });
  engine.seed(0, Time::us(1), [] {});
  engine.seed(1, Time::us(2), [] {});
  engine.run_until(Time::us(3));
  EXPECT_GE(hooks, 2);
}

TEST(ShardedSimulator, SeededRootsKeepSubmissionOrderAtEqualTimes) {
  // Equal-time seeds on the same shard fire in submission order under any
  // shard count (the partition-independent root key space).
  for (int shards : {1, 2, 4}) {
    ShardedSimulator engine(shards, Time::us(1));
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      engine.seed(0, Time::us(1), [&order, i] { order.push_back(i); });
    }
    engine.run_until(Time::us(2));
    std::vector<int> expect(8);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect) << "shards=" << shards;
  }
}

// A cross-shard hop workload: kDomains logical nodes, domain d on shard
// d % shards. Every event logs (time, tag) on its own shard, then hands
// one hop to another domain a lookahead plus a tag-derived jitter later.
// Tags come from the causal key derivation, so the sorted log is the same
// under every partition. An event on `throw_on_shard` past 50 us throws.
using Trace = std::vector<std::pair<std::int64_t, std::uint64_t>>;

Trace run_hops(int shards, int throw_on_shard = -1) {
  constexpr int kDomains = 8;
  const Time lookahead = Time::ns(500);
  const Time end = Time::us(200);
  ShardedSimulator engine(shards, lookahead);
  std::vector<Trace> logs(static_cast<std::size_t>(shards));
  std::function<void(int)> hop = [&](int d) {
    ShardContext& here = engine.shard(d % shards);
    const Time now = here.now();
    const std::uint64_t tag = here.sim().derive_key();
    logs[static_cast<std::size_t>(here.shard())].emplace_back(now.picoseconds(), tag);
    if (here.shard() == throw_on_shard && now > Time::us(50)) {
      throw std::runtime_error("hop failed");
    }
    if (now > end) return;
    const int next = (d * 5 + static_cast<int>(tag % 3) + 1) % kDomains;
    here.post(engine.shard(next % shards),
              now + lookahead + Time::ns(static_cast<std::int64_t>(tag % 700)),
              [&hop, next] { hop(next); });
  };
  for (int d = 0; d < kDomains; ++d) {
    engine.seed(d % shards, Time::ns(100 * d), [&hop, d] { hop(d); });
  }
  engine.run_until(end + Time::us(10));
  Trace all;
  for (const Trace& log : logs) all.insert(all.end(), log.begin(), log.end());
  std::sort(all.begin(), all.end());
  return all;
}

TEST(ShardedSimulator, ShardPhaseExceptionPropagates) {
  // A failing event on a resident worker's shard surfaces on the caller,
  // and leaves no worker hung or orphaned: the engine destructs, and a
  // fresh engine on the same pool still runs bit-identically.
  EXPECT_THROW(run_hops(4, /*throw_on_shard=*/2), std::runtime_error);
  const Trace reference = run_hops(1);
  ASSERT_GT(reference.size(), 1000u);
  EXPECT_EQ(run_hops(4), reference);
}

TEST(ShardedSimulator, MoreShardsThanPoolThreads) {
  // 8 shards on the shared pool: shard s runs on thread s % size(), several
  // shards to a thread when the pool is smaller — the mapping --threads
  // above the core count uses. Same (time, key) trace as 1 shard.
  EXPECT_EQ(run_hops(8), run_hops(1));
}

TEST(ShardedSimulator, CountsEpochsAndDeliveredMail) {
  ShardedSimulator engine(2, Time::us(1));
  engine.seed(0, Time::us(1), [&engine] {
    engine.shard(0).post(engine.shard(1), Time::us(3), [] {});
  });
  engine.run_until(Time::us(5));
  EXPECT_EQ(engine.mail_delivered(), 1u);
  EXPECT_GE(engine.epochs(), 2u);
}

}  // namespace
}  // namespace opera::sim
