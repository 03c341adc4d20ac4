// The RotorNet topology: the Opera rotor structure under the unison
// schedule (every switch retargets at every boundary).
#include <gtest/gtest.h>

#include <set>

#include "core/fabric.h"
#include "topo/opera_topology.h"

namespace opera::topo {
namespace {

OperaParams small_params() {
  OperaParams p;
  p.num_racks = 16;
  p.num_switches = 4;
  p.seed = 3;
  return p;
}

OperaTopology unison(const OperaParams& p) {
  return OperaTopology(p, RotorSchedule::kUnison);
}

TEST(RotorNet, SliceCount) {
  const OperaTopology topo = unison(small_params());
  // All switches rotate together: N/u slices per cycle.
  EXPECT_EQ(topo.num_switches(), 4);
  EXPECT_EQ(topo.num_slices(), 4);
}

TEST(RotorNet, HybridEvenSplit) {
  auto cfg = core::FabricConfig::make(core::FabricKind::kRotorNet);
  cfg.rotornet.num_racks = 15;
  cfg.rotornet.num_switches = 4;  // 3 rotors after hybrid donation
  cfg.rotornet.hybrid = true;
  const core::OperaConfig lowered = cfg.rotornet_config();
  const OperaTopology topo = unison(lowered.topology);
  EXPECT_EQ(topo.num_switches(), 3);
  EXPECT_EQ(topo.num_slices(), 5);
  EXPECT_EQ(lowered.cycle_time(), lowered.slice.duration * 5);
}

TEST(RotorNet, RejectsUnevenSplit) {
  OperaParams p;
  p.num_racks = 16;
  p.num_switches = 3;
  EXPECT_THROW(unison(p), std::invalid_argument);
}

TEST(RotorNet, AllSwitchesAdvanceTogether) {
  const OperaTopology topo = unison(small_params());
  for (int sw = 0; sw < 4; ++sw) {
    const auto m0 = topo.matching_index(sw, 0);
    const auto m1 = topo.matching_index(sw, 1);
    EXPECT_NE(m0, m1);
    // Wraps around after num_slices.
    EXPECT_EQ(topo.matching_index(sw, topo.num_slices()), m0);
  }
  for (int s = 0; s < topo.num_slices(); ++s) {
    // Every switch retargets at every boundary, onto this slice's matching,
    // and none is left down for the slice.
    const auto [first, last] = topo.retargeting_switches(s);
    EXPECT_EQ(first, 0);
    EXPECT_EQ(last, 4);
    EXPECT_EQ(topo.settle_slice(s), s);
    EXPECT_EQ(topo.reconfiguring_switch(s), -1);
  }
}

TEST(RotorNet, CycleCoversAllMatchings) {
  const OperaTopology topo = unison(small_params());
  std::set<std::size_t> seen;
  for (int s = 0; s < topo.num_slices(); ++s) {
    for (int sw = 0; sw < 4; ++sw) {
      seen.insert(topo.matching_index(sw, s));
    }
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(RotorNet, EveryRackPairGetsDirectCircuit) {
  const OperaTopology topo = unison(small_params());
  std::set<std::pair<Vertex, Vertex>> connected;
  for (int s = 0; s < topo.num_slices(); ++s) {
    for (int sw = 0; sw < 4; ++sw) {
      for (Vertex r = 0; r < 16; ++r) {
        const Vertex peer = topo.circuit_peer(sw, r, s);
        if (peer != r) connected.insert({r, peer});
      }
    }
  }
  EXPECT_EQ(connected.size(), 16u * 15u);  // every ordered pair
}

TEST(RotorNet, SliceGraphIsUnionOfUMatchings) {
  const OperaTopology topo = unison(small_params());
  for (int s = 0; s < topo.num_slices(); ++s) {
    const Graph g = topo.slice_graph(s);
    for (Vertex v = 0; v < 16; ++v) {
      EXPECT_LE(g.degree(v), 4);
    }
  }
}

}  // namespace
}  // namespace opera::topo
