#include "topo/opera_topology.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

namespace opera::topo {
namespace {

OperaParams small_params() {
  OperaParams p;
  p.num_racks = 16;
  p.num_switches = 4;
  p.hosts_per_rack = 4;
  p.seed = 7;
  return p;
}

TEST(OperaTopology, SliceCountEqualsRackCount) {
  const OperaTopology topo(small_params());
  EXPECT_EQ(topo.num_slices(), 16);
  EXPECT_EQ(topo.matchings().size(), 16u);
}

TEST(OperaTopology, MatchingsDealtEvenly) {
  const OperaTopology topo(small_params());
  std::set<std::size_t> seen;
  for (int sw = 0; sw < 4; ++sw) {
    const auto& mine = topo.switch_matchings(sw);
    EXPECT_EQ(mine.size(), 4u);  // N/u = 16/4
    seen.insert(mine.begin(), mine.end());
  }
  EXPECT_EQ(seen.size(), 16u);  // partition of all matchings
}

TEST(OperaTopology, ReconfiguringSwitchRotates) {
  const OperaTopology topo(small_params());
  for (int s = 0; s < topo.num_slices(); ++s) {
    EXPECT_EQ(topo.reconfiguring_switch(s), s % 4);
  }
}

TEST(OperaTopology, MatchingAdvancesOnlyAtReconfiguration) {
  const OperaTopology topo(small_params());
  // Between consecutive slices, only the switch that spent slice s
  // reconfiguring comes up with a new matching in slice s+1.
  for (int s = 0; s + 1 < topo.num_slices(); ++s) {
    for (int sw = 0; sw < 4; ++sw) {
      const auto before = topo.matching_index(sw, s);
      const auto after = topo.matching_index(sw, s + 1);
      if (topo.reconfiguring_switch(s) == sw) {
        EXPECT_NE(before, after) << "slice " << s << " switch " << sw;
      } else {
        EXPECT_EQ(before, after) << "slice " << s << " switch " << sw;
      }
    }
  }
}

TEST(OperaTopology, SwitchCyclesThroughAllItsMatchings) {
  const OperaTopology topo(small_params());
  for (int sw = 0; sw < 4; ++sw) {
    std::set<std::size_t> seen;
    for (int s = 0; s < topo.num_slices(); ++s) {
      seen.insert(topo.matching_index(sw, s));
    }
    EXPECT_EQ(seen.size(), topo.switch_matchings(sw).size());
  }
}

TEST(OperaTopology, EverySliceConnected) {
  const OperaTopology topo(small_params());
  EXPECT_TRUE(topo.all_slices_connected());
}

TEST(OperaTopology, SliceGraphDegreeBound) {
  const OperaTopology topo(small_params());
  // Union of u-1 = 3 matchings: every rack has degree <= 3.
  for (int s = 0; s < topo.num_slices(); ++s) {
    const Graph g = topo.slice_graph(s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_LE(g.degree(v), 3);
    }
  }
}

TEST(OperaTopology, AllRackPairsDirectlyConnectedOverCycle) {
  const OperaTopology topo(small_params());
  for (Vertex a = 0; a < 16; ++a) {
    for (Vertex b = 0; b < 16; ++b) {
      if (a == b) continue;
      EXPECT_FALSE(topo.direct_slices(a, b).empty())
          << "no direct circuit for " << a << "->" << b;
    }
  }
}

TEST(OperaTopology, CircuitPeerIsSymmetric) {
  const OperaTopology topo(small_params());
  for (int s = 0; s < topo.num_slices(); ++s) {
    for (int sw = 0; sw < 4; ++sw) {
      for (Vertex r = 0; r < 16; ++r) {
        const Vertex peer = topo.circuit_peer(sw, r, s);
        EXPECT_EQ(topo.circuit_peer(sw, peer, s), r);
      }
    }
  }
}

// The matching switch `sw` implements in `slice`, derived from its
// assignment by the schedule's arithmetic (the formula the per-slice
// circuit table is filled from).
std::size_t derived_matching(const OperaTopology& topo, RotorSchedule schedule,
                             int sw, int slice) {
  const auto& mine = topo.switch_matchings(sw);
  std::size_t advances = static_cast<std::size_t>(slice);
  if (schedule == RotorSchedule::kOffset) {
    const int u = topo.num_switches();
    advances = slice > sw ? static_cast<std::size_t>((slice - sw - 1) / u + 1) : 0;
  }
  return mine[advances % mine.size()];
}

void expect_circuits_match_assignment(const OperaTopology& topo,
                                      RotorSchedule schedule, const char* what) {
  for (int s = 0; s < topo.num_slices(); ++s) {
    for (int sw = 0; sw < topo.num_switches(); ++sw) {
      const std::size_t m = derived_matching(topo, schedule, sw, s);
      ASSERT_EQ(topo.matching_index(sw, s), m)
          << what << " slice " << s << " switch " << sw;
      for (Vertex r = 0; r < topo.num_racks(); ++r) {
        ASSERT_EQ(topo.circuit_peer(sw, r, s),
                  topo.matchings()[m][static_cast<std::size_t>(r)])
            << what << " slice " << s << " switch " << sw << " rack " << r;
      }
    }
  }
}

// circuit_peer and matching_index read a table resolved at construction;
// it must agree with the assignment on every (slice, switch, rack), and
// stay valid when the topology is copied or moved.
TEST(OperaTopology, CircuitPeerMatchesMatchingIndex) {
  for (const RotorSchedule schedule : {RotorSchedule::kOffset, RotorSchedule::kUnison}) {
    OperaParams p = small_params();
    p.num_racks = 48;
    const OperaTopology topo(p, schedule);
    expect_circuits_match_assignment(topo, schedule, "original");

    const OperaTopology copy = topo;
    expect_circuits_match_assignment(copy, schedule, "copy");

    OperaTopology source(p, schedule);
    const OperaTopology moved = std::move(source);
    expect_circuits_match_assignment(moved, schedule, "moved");
    EXPECT_EQ(moved.matchings(), topo.matchings());
  }
}

TEST(OperaTopology, SliceRoutesReachAllRacks) {
  const OperaTopology topo(small_params());
  const auto routes = topo.slice_routes(0);
  for (Vertex src = 0; src < 16; ++src) {
    for (Vertex dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      EXPECT_FALSE(routes.next_hops(src, dst).empty());
    }
  }
}

TEST(OperaTopology, FailedSwitchRemovesItsCircuits) {
  const OperaTopology topo(small_params());
  auto failures = FailureSet::none(16, 4);
  // Fail a switch that is active in slice 0 (switch 0 is reconfiguring).
  failures.switch_failed[1] = true;
  const Graph with = topo.slice_graph(0);
  const Graph without = topo.slice_graph(0, &failures);
  EXPECT_LT(without.num_edges(), with.num_edges());
}

TEST(OperaTopology, FailedUplinkRemovesOneCircuit) {
  const OperaTopology topo(small_params());
  auto failures = FailureSet::none(16, 4);
  failures.uplink_failed[3][1] = true;  // rack 3's uplink to switch 1
  const Graph with = topo.slice_graph(0);
  const Graph without = topo.slice_graph(0, &failures);
  // Switch 1 is active in slice 0; rack 3 loses exactly one circuit unless
  // the matching self-matched it.
  const Vertex peer = topo.circuit_peer(1, 3, 0);
  if (peer != 3) {
    EXPECT_EQ(without.num_edges() + 1, with.num_edges());
    EXPECT_FALSE(without.has_edge(3, peer));
  }
}

TEST(OperaTopology, RejectsIndivisibleRackCount) {
  OperaParams p;
  p.num_racks = 10;
  p.num_switches = 4;  // 10 % 4 != 0
  EXPECT_THROW(OperaTopology topo(p), std::invalid_argument);
}

TEST(OperaTopology, PaperScale108Racks) {
  OperaParams p;
  p.num_racks = 108;
  p.num_switches = 6;
  p.hosts_per_rack = 6;
  p.seed = 1;
  const OperaTopology topo(p);
  EXPECT_EQ(topo.num_slices(), 108);
  EXPECT_EQ(topo.params().num_hosts(), 648);
  EXPECT_TRUE(topo.all_slices_connected());
  // Worst-case path length across sample slices should be ~5 (paper §4.1).
  for (const int s : {0, 17, 53, 107}) {
    const auto stats = all_pairs_path_stats(topo.slice_graph(s));
    EXPECT_EQ(stats.disconnected_pairs, 0u);
    EXPECT_LE(stats.worst, 6);
  }
}

TEST(OperaTopology, AcceptanceTestCoversEveryDownSwitch) {
  // Slice s has switch s % u down. At k=24 (432 racks, u = 12) and k=32
  // (768, u = 16) a sampling step sharing a factor with u would test only
  // 4 of the u switches' down phases.
  for (const auto& [racks, switches] :
       {std::pair<Vertex, int>{108, 6}, {432, 12}, {768, 16}, {300, 6}, {1024, 8}}) {
    const auto slices = acceptance_slices(racks, switches);
    EXPECT_LE(slices.size(), static_cast<std::size_t>(racks));
    std::vector<bool> down_tested(static_cast<std::size_t>(switches), false);
    for (const int s : slices) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, racks);
      down_tested[static_cast<std::size_t>(s % switches)] = true;
    }
    for (int sw = 0; sw < switches; ++sw) {
      EXPECT_TRUE(down_tested[static_cast<std::size_t>(sw)])
          << "racks=" << racks << " u=" << switches << " switch " << sw;
    }
  }
  // Up to 256 racks every slice is tested.
  EXPECT_EQ(acceptance_slices(256, 8).size(), 256u);
}

// Property sweep over sizes and seeds: all slices connected, full direct
// coverage across the cycle.
struct TopoParam {
  Vertex racks;
  int switches;
  std::uint64_t seed;
};

class OperaTopologySweep : public ::testing::TestWithParam<TopoParam> {};

TEST_P(OperaTopologySweep, SlicesConnectedAndCycleComplete) {
  const auto [racks, switches, seed] = GetParam();
  OperaParams p;
  p.num_racks = racks;
  p.num_switches = switches;
  p.seed = seed;
  const OperaTopology topo(p);
  EXPECT_TRUE(topo.all_slices_connected());
  // Direct coverage: rack 0 reaches every other rack directly in-cycle.
  for (Vertex b = 1; b < racks; ++b) {
    EXPECT_FALSE(topo.direct_slices(0, b).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OperaTopologySweep,
    ::testing::Values(TopoParam{8, 4, 1}, TopoParam{12, 4, 2},
                      TopoParam{16, 4, 3}, TopoParam{20, 5, 4},
                      TopoParam{24, 6, 5}, TopoParam{36, 6, 6},
                      TopoParam{54, 6, 7}, TopoParam{64, 8, 8}));

}  // namespace
}  // namespace opera::topo
