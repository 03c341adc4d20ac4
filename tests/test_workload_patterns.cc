// The three datacenter traffic patterns added for the paper-scale sweeps:
//   * golden regression — a fixed seed must reproduce the exact flow list
//     (the generators feed recorded benches; silent drift would invalidate
//     every baseline comparison);
//   * structural invariants over randomized seeds;
//   * an exp::Experiment smoke run per pattern on the quick testbed.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "exp/experiment.h"
#include "exp/testbed.h"
#include "workload/synthetic.h"

namespace opera::workload {
namespace {

struct GoldenFlow {
  std::int32_t src;
  std::int32_t dst;
  std::int64_t bytes;
  std::int64_t start_ps;
};

void expect_golden(const std::vector<FlowSpec>& flows,
                   const std::vector<GoldenFlow>& golden) {
  ASSERT_EQ(flows.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(flows[i].src_host, golden[i].src) << "flow " << i;
    EXPECT_EQ(flows[i].dst_host, golden[i].dst) << "flow " << i;
    EXPECT_EQ(flows[i].size_bytes, golden[i].bytes) << "flow " << i;
    EXPECT_EQ(flows[i].start.picoseconds(), golden[i].start_ps) << "flow " << i;
  }
}

TEST(WorkloadGolden, IncastSeed5) {
  sim::Rng rng(5);
  IncastParams p;
  p.events = 2;
  p.fanin = 4;
  p.flow_bytes = 1000;
  p.spacing = sim::Time::us(100);
  expect_golden(incast_workload(12, 3, p, rng),
                {
                    {3, 6, 1000, 0},
                    {2, 6, 1000, 0},
                    {11, 6, 1000, 0},
                    {5, 6, 1000, 0},
                    {2, 3, 1000, 100000000},
                    {11, 3, 1000, 100000000},
                    {7, 3, 1000, 100000000},
                    {9, 3, 1000, 100000000},
                });
}

TEST(WorkloadGolden, StorageReplicationSeed6) {
  sim::Rng rng(6);
  StorageReplicationParams p;
  p.writes = 2;
  p.replicas = 2;
  p.object_bytes = 5000;
  p.spacing = sim::Time::us(50);
  p.chain_delay = sim::Time::us(10);
  expect_golden(storage_replication_workload(12, 3, p, rng),
                {
                    {2, 7, 5000, 0},
                    {7, 10, 5000, 10000000},
                    {6, 11, 5000, 50000000},
                    {11, 1, 5000, 60000000},
                });
}

TEST(WorkloadGolden, MlCollectiveSeed7) {
  sim::Rng rng(7);
  MlCollectiveParams p;
  p.group_size = 4;
  p.model_bytes = 4000;
  p.step_interval = sim::Time::us(20);
  // One ring of 4 (shuffled placement [3,0,2,1]), 2*(4-1) = 6 steps of one
  // 1000 B chunk from each member to its successor.
  std::vector<GoldenFlow> golden;
  const std::vector<GoldenFlow> step = {
      {3, 0, 1000, 0}, {0, 2, 1000, 0}, {2, 1, 1000, 0}, {1, 3, 1000, 0}};
  for (int s = 0; s < 6; ++s) {
    for (const auto& f : step) {
      golden.push_back({f.src, f.dst, f.bytes, s * 20'000'000LL});
    }
  }
  expect_golden(ml_collective_workload(4, 2, p, rng), golden);
}

// --- Randomized structural invariants ------------------------------------

TEST(WorkloadInvariants, IncastWorkersDistinctAndCrossRack) {
  for (const std::uint64_t seed : {1u, 9u, 42u}) {
    sim::Rng rng(seed);
    IncastParams p;
    p.events = 5;
    p.fanin = 10;
    const auto flows = incast_workload(36, 4, p, rng);
    ASSERT_EQ(flows.size(), 50u);
    for (int e = 0; e < p.events; ++e) {
      std::set<std::int32_t> workers;
      const std::int32_t aggregator = flows[static_cast<std::size_t>(e * 10)].dst_host;
      for (int i = 0; i < 10; ++i) {
        const auto& f = flows[static_cast<std::size_t>(e * 10 + i)];
        EXPECT_EQ(f.dst_host, aggregator);  // one sink per event
        EXPECT_NE(f.src_host / 4, aggregator / 4) << "rack-local worker";
        workers.insert(f.src_host);
        EXPECT_EQ(f.start, p.spacing * e);
      }
      EXPECT_EQ(workers.size(), 10u) << "duplicate worker in event " << e;
    }
  }
}

TEST(WorkloadInvariants, IncastFaninCappedAtEligibleHosts) {
  sim::Rng rng(3);
  IncastParams p;
  p.events = 1;
  p.fanin = 1000;  // far more than the 8 hosts outside the aggregator rack
  const auto flows = incast_workload(12, 4, p, rng);
  EXPECT_EQ(flows.size(), 8u);
}

TEST(WorkloadInvariants, StorageChainRackDisjointAndPipelined) {
  for (const std::uint64_t seed : {2u, 8u, 77u}) {
    sim::Rng rng(seed);
    StorageReplicationParams p;
    p.writes = 10;
    p.replicas = 3;
    const auto flows = storage_replication_workload(48, 4, p, rng);
    ASSERT_EQ(flows.size(), 30u);
    for (int w = 0; w < p.writes; ++w) {
      std::set<std::int32_t> racks;
      racks.insert(flows[static_cast<std::size_t>(w * 3)].src_host / 4);  // client rack
      for (int c = 0; c < 3; ++c) {
        const auto& f = flows[static_cast<std::size_t>(w * 3 + c)];
        if (c > 0) {
          // Chain: this hop's source is the previous hop's destination.
          EXPECT_EQ(f.src_host, flows[static_cast<std::size_t>(w * 3 + c - 1)].dst_host);
        }
        EXPECT_EQ(f.start, p.spacing * w + p.chain_delay * c);
        EXPECT_TRUE(racks.insert(f.dst_host / 4).second)
            << "replica rack reused in write " << w;
      }
    }
  }
}

TEST(WorkloadInvariants, StorageChainClampsToAvailableRacks) {
  // 3 racks can host at most 2 rack-disjoint copies; asking for 3 must
  // shorten the chain, not read past the candidate rack list.
  sim::Rng rng(5);
  StorageReplicationParams p;
  p.writes = 4;
  p.replicas = 3;
  const auto flows = storage_replication_workload(12, 4, p, rng);
  ASSERT_EQ(flows.size(), 8u);  // 4 writes x 2 placeable copies
  for (const auto& f : flows) {
    EXPECT_GE(f.dst_host, 0);
    EXPECT_LT(f.dst_host, 12);
  }
}

TEST(WorkloadInvariants, StorageImpossibleSpecFailsLoudlyWithNoFlows) {
  // Impossible specs must return an empty workload (plus a stderr
  // diagnostic) instead of asserting in debug and silently simulating
  // garbage in release: a replica-less write, and a one-rack fabric that
  // cannot host any rack-disjoint copy.
  sim::Rng rng(5);
  StorageReplicationParams p;
  p.writes = 4;
  p.replicas = 0;
  EXPECT_TRUE(storage_replication_workload(12, 4, p, rng).empty());
  p.replicas = 3;
  EXPECT_TRUE(storage_replication_workload(4, 4, p, rng).empty());
}

TEST(WorkloadInvariants, MlCollectiveRingsPartitionAndBalance) {
  for (const std::uint64_t seed : {4u, 21u}) {
    sim::Rng rng(seed);
    MlCollectiveParams p;
    p.group_size = 6;
    p.model_bytes = 6000;
    const auto flows = ml_collective_workload(30, 5, p, rng);
    // 5 rings x 10 steps x 6 members.
    ASSERT_EQ(flows.size(), 300u);
    // Every host appears as a source exactly 2*(g-1) times and sends only
    // to its fixed ring successor.
    std::vector<int> sends(30, 0);
    std::vector<std::int32_t> successor(30, -1);
    for (const auto& f : flows) {
      EXPECT_EQ(f.size_bytes, 1000);
      ++sends[static_cast<std::size_t>(f.src_host)];
      if (successor[static_cast<std::size_t>(f.src_host)] < 0) {
        successor[static_cast<std::size_t>(f.src_host)] = f.dst_host;
      } else {
        EXPECT_EQ(successor[static_cast<std::size_t>(f.src_host)], f.dst_host);
      }
    }
    for (int h = 0; h < 30; ++h) EXPECT_EQ(sends[static_cast<std::size_t>(h)], 10);
  }
}

// --- exp::Experiment smoke run per pattern on the quick testbed ----------

TEST(WorkloadSmoke, EachPatternRunsOnQuickTestbedOpera) {
  const auto config = exp::Testbed::quick().opera();
  const std::int32_t hosts = config.num_hosts();
  const std::int32_t hpr = config.opera.hosts_per_rack;

  std::vector<std::pair<std::string, std::vector<FlowSpec>>> patterns;
  {
    sim::Rng rng(1);
    IncastParams p;
    p.events = 2;
    p.fanin = 8;
    p.flow_bytes = 20'000;
    patterns.emplace_back("incast", incast_workload(hosts, hpr, p, rng));
  }
  {
    sim::Rng rng(2);
    StorageReplicationParams p;
    p.writes = 4;
    p.object_bytes = 100'000;
    patterns.emplace_back("storage",
                          storage_replication_workload(hosts, hpr, p, rng));
  }
  {
    sim::Rng rng(3);
    MlCollectiveParams p;
    p.group_size = 4;
    p.model_bytes = 40'000;
    patterns.emplace_back("ml_collective",
                          ml_collective_workload(hosts, hpr, p, rng));
  }

  const char* argv[] = {"test_workload_patterns"};
  exp::Experiment ex("workload pattern smoke", 1, const_cast<char**>(argv));
  for (const auto& [name, flows] : patterns) {
    ASSERT_FALSE(flows.empty()) << name;
    exp::Experiment::RunOptions opts;
    opts.horizon = sim::Time::ms(30);
    const auto result = ex.run(name, config, flows, opts);
    EXPECT_EQ(result.net->tracker().registered(), flows.size()) << name;
    EXPECT_EQ(result.net->tracker().completed(), flows.size())
        << name << ": not all flows completed by the horizon";
  }
}

}  // namespace
}  // namespace opera::workload
