// Build-sanity smoke test: instantiate one topology (and one packet-level
// network) of each family at small scale and check basic invariants, so a
// link-time regression in any layer — sim, topo, net, transport, core —
// breaks one fast target instead of 29 slower ones.
#include <gtest/gtest.h>

#include "core/clos_network.h"
#include "core/expander_network.h"
#include "core/fabric.h"
#include "core/opera_network.h"
#include "topo/expander.h"
#include "topo/folded_clos.h"
#include "topo/graph.h"
#include "topo/opera_topology.h"

namespace opera {
namespace {

bool connected(const topo::Graph& g) {
  const auto dist = topo::bfs_distances(g, 0);
  for (topo::Vertex v = 0; v < g.num_vertices(); ++v) {
    if (dist[static_cast<std::size_t>(v)] < 0) return false;
  }
  return true;
}

TEST(BuildSanity, OperaTopology) {
  topo::OperaParams p;
  p.num_racks = 8;
  p.num_switches = 4;
  p.hosts_per_rack = 2;
  const topo::OperaTopology topo(p);
  EXPECT_EQ(topo.num_racks(), 8);
  EXPECT_EQ(topo.num_slices(), 8);
  EXPECT_EQ(p.num_hosts(), 16);
  // Each slice unions u-1 = 3 active matchings over 8 racks and must stay
  // connected (the paper's expander-across-time property).
  for (int s = 0; s < topo.num_slices(); ++s) {
    const auto g = topo.slice_graph(s);
    EXPECT_EQ(g.num_vertices(), 8);
    EXPECT_GT(g.num_edges(), 0u);
    EXPECT_TRUE(connected(g)) << "slice " << s << " disconnected";
  }
}

TEST(BuildSanity, RotorNetTopology) {
  topo::OperaParams p;
  p.num_racks = 8;
  p.num_switches = 4;
  const topo::OperaTopology topo(p, topo::RotorSchedule::kUnison);
  EXPECT_EQ(topo.num_switches(), 4);
  EXPECT_EQ(topo.num_slices(), 2);
  const auto g = topo.slice_graph(0);
  EXPECT_EQ(g.num_vertices(), 8);
  EXPECT_GT(g.num_edges(), 0u);
}

TEST(BuildSanity, FoldedClos) {
  topo::ClosParams p;
  p.radix = 4;
  p.oversubscription = 1;
  const topo::FoldedClos clos(p);
  EXPECT_GT(clos.num_tors(), 0);
  EXPECT_GT(clos.num_aggs(), 0);
  EXPECT_GT(clos.num_cores(), 0);
  EXPECT_EQ(clos.num_hosts(), clos.num_tors() * p.hosts_per_tor());
  const auto& g = clos.switch_graph();
  EXPECT_EQ(g.num_vertices(), clos.num_tors() + clos.num_aggs() + clos.num_cores());
  EXPECT_TRUE(connected(g));
}

TEST(BuildSanity, ExpanderTopology) {
  topo::ExpanderParams p;
  p.num_tors = 12;
  p.uplinks = 3;
  p.hosts_per_tor = 2;
  const topo::ExpanderTopology topo(p);
  const auto& g = topo.graph();
  EXPECT_EQ(g.num_vertices(), 12);
  for (topo::Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.degree(v), 3) << "ToR " << v;
  }
  EXPECT_TRUE(connected(g));
}

// Constructing each packet-level network exercises every layer library at
// link time (core -> topo/net/transport -> sim).
TEST(BuildSanity, PacketNetworksBuild) {
  core::OperaConfig opera_cfg;
  opera_cfg.topology.num_racks = 8;
  opera_cfg.topology.num_switches = 4;
  opera_cfg.topology.hosts_per_rack = 2;
  core::OperaNetwork opera_net(opera_cfg);
  EXPECT_EQ(opera_net.num_hosts(), 16);
  EXPECT_EQ(opera_net.num_racks(), 8);

  auto rotor_cfg = core::FabricConfig::make(core::FabricKind::kRotorNet);
  rotor_cfg.rotornet.num_racks = 8;
  rotor_cfg.rotornet.num_switches = 4;
  rotor_cfg.rotornet_hosts_per_rack = 2;
  core::OperaNetwork rotor_net(rotor_cfg.rotornet_config());
  EXPECT_EQ(rotor_net.num_hosts(), 16);

  core::ClosNetConfig clos_cfg;
  clos_cfg.structure.radix = 4;
  clos_cfg.structure.oversubscription = 1;
  core::ClosNetwork clos_net(clos_cfg);
  EXPECT_GT(clos_net.num_hosts(), 0);

  core::ExpanderNetConfig exp_cfg;
  exp_cfg.structure.num_tors = 12;
  exp_cfg.structure.uplinks = 3;
  exp_cfg.structure.hosts_per_tor = 2;
  core::ExpanderNetwork exp_net(exp_cfg);
  EXPECT_EQ(exp_net.num_hosts(), 24);
}

}  // namespace
}  // namespace opera
