// Routing parity, two layers:
//  * Mask tables: the EcmpTable built by all_pairs_ecmp_next_hops must hold
//    exactly the next hops of the queue-BFS oracle
//    (all_pairs_ecmp_next_hops_reference) in the same order — the k-th set
//    bit of a cell's mask names the oracle's k-th hop — on every topology
//    family the packet-level fabrics route over, including under failures.
//  * Slice-table windowing: an OperaNetwork running on a small windowed
//    slice-table cache must produce bit-identical flow completions to the
//    eager all-slices precompute — table content is a pure function of
//    (topology, slice, failures), so *when* tables are built must never
//    leak into results, including across failure recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/opera_network.h"
#include "support/support.h"
#include "topo/expander.h"
#include "topo/folded_clos.h"
#include "topo/graph.h"
#include "topo/opera_topology.h"

namespace opera::topo {
namespace {

void expect_parity(const Graph& g, const std::string& label) {
  const EcmpTable table = all_pairs_ecmp_next_hops(g);
  const NestedEcmpTable ref = all_pairs_ecmp_next_hops_reference(g);
  ASSERT_EQ(table.num_vertices(), g.num_vertices()) << label;
  for (Vertex src = 0; src < g.num_vertices(); ++src) {
    const auto& nbrs = g.neighbors(src);
    for (Vertex dst = 0; dst < g.num_vertices(); ++dst) {
      const NextHops hops = table.next_hops(src, dst);
      const auto& nested =
          ref[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
      ASSERT_EQ(hops.size(), nested.size())
          << label << ": cell (" << src << ", " << dst << ")";
      ASSERT_EQ(hops.mask() >> nbrs.size(), 0u)
          << label << ": cell (" << src << ", " << dst << ") names a missing neighbour";
      // The k-th hop two ways: indexed (the forward path) and iterated.
      std::size_t k = 0;
      for (const Vertex hop : hops) {
        ASSERT_EQ(hop, nested[k]) << label << ": cell (" << src << ", " << dst
                                  << ") iterated hop " << k;
        ASSERT_EQ(hops[k], nested[k]) << label << ": cell (" << src << ", " << dst
                                      << ") indexed hop " << k;
        ++k;
      }
    }
  }
}

TEST(RoutingParity, OperaSlicesSmall) {
  const OperaTopology topo(support::Testbed{.hosts_per_rack = 6}.topology());
  for (int s = 0; s < topo.num_slices(); ++s) {
    expect_parity(topo.slice_graph(s), "opera16 slice " + std::to_string(s));
  }
}

TEST(RoutingParity, OperaSlicesPaperScale) {
  OperaParams p;  // defaults: N=108, u=6
  p.seed = 1;
  const OperaTopology topo(p);
  for (const int s : {0, 1, 53, 107}) {
    expect_parity(topo.slice_graph(s), "opera108 slice " + std::to_string(s));
  }
}

TEST(RoutingParity, OperaUnderFailures) {
  const OperaTopology topo(support::Testbed{.hosts_per_rack = 6}.topology());
  auto failures = FailureSet::none(16, 4);
  failures.switch_failed[1] = true;
  failures.uplink_failed[3][2] = true;
  failures.rack_failed[7] = true;
  for (int s = 0; s < topo.num_slices(); ++s) {
    expect_parity(topo.slice_graph(s, &failures),
                  "opera16+failures slice " + std::to_string(s));
    // slice_routes() must agree with building the table by hand.
    EXPECT_EQ(topo.slice_routes(s, &failures),
              all_pairs_ecmp_next_hops(topo.slice_graph(s, &failures)));
  }
}

TEST(RoutingParity, OperaPaperScaleUnderFailures) {
  OperaParams p;  // N=108, u=6
  p.seed = 1;
  const OperaTopology topo(p);
  auto failures = FailureSet::none(p.num_racks, p.num_switches);
  failures.switch_failed[2] = true;
  failures.uplink_failed[17][4] = true;
  for (const int s : {0, 54}) {
    expect_parity(topo.slice_graph(s, &failures),
                  "opera108+failures slice " + std::to_string(s));
  }
}

TEST(RoutingParity, Expander) {
  for (const Vertex tors : {Vertex{16}, Vertex{108}}) {
    ExpanderParams p;
    p.num_tors = tors;
    p.uplinks = tors >= 100 ? 7 : 5;
    p.hosts_per_tor = 5;
    p.seed = 1;
    const ExpanderTopology topo(p);
    expect_parity(topo.graph(), "expander " + std::to_string(tors));
    EXPECT_EQ(topo.routes(), all_pairs_ecmp_next_hops(topo.graph()));
  }
}

// k=24 scale (432 racks, u=12): the eager-resolving fabric of
// opera_k24_websearch. A plain slice, one under a switch plus an uplink
// failure, and a unison (RotorNet) slice, where all 12 switches carry
// circuits (degree 12).
TEST(RoutingParity, OperaK24Slices) {
  OperaParams p;
  p.num_racks = 432;
  p.num_switches = 12;
  p.hosts_per_rack = 12;
  p.seed = 1;
  const OperaTopology topo(p);
  expect_parity(topo.slice_graph(5), "opera432 slice 5");

  auto failures = FailureSet::none(p.num_racks, p.num_switches);
  failures.switch_failed[3] = true;
  failures.uplink_failed[100][7] = true;
  expect_parity(topo.slice_graph(200, &failures), "opera432+failures slice 200");

  const Graph full = OperaTopology(p, RotorSchedule::kUnison).slice_graph(35);
  Vertex max_degree = 0;
  for (Vertex v = 0; v < full.num_vertices(); ++v) {
    max_degree = std::max(max_degree, full.degree(v));
  }
  EXPECT_EQ(max_degree, 12);
  expect_parity(full, "rotornet432 slice 35");
}

TEST(RoutingParity, RejectsDegreeAboveMaskWidth) {
  // The k=24 folded Clos switch graph has degree-24 switches: too wide for
  // a 16-bit next-hop mask, so the build must fail loudly, naming one.
  ClosParams p;
  p.radix = 24;
  p.oversubscription = 3;
  const FoldedClos clos(p);
  const Graph& g = clos.switch_graph();
  Vertex wide = kNoVertex;
  for (Vertex v = 0; v < g.num_vertices() && wide == kNoVertex; ++v) {
    if (g.degree(v) > EcmpTable::kMaxDegree) wide = v;
  }
  ASSERT_NE(wide, kNoVertex);
  try {
    (void)all_pairs_ecmp_next_hops(g);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vertex " + std::to_string(wide) + " has degree " +
                        std::to_string(g.degree(wide))),
              std::string::npos)
        << what;
  }
}

TEST(RoutingParity, FoldedClos) {
  // k=8 (toy) and the paper's k=12 3:1 Clos switch graphs: hierarchical,
  // unlike the flat matchings above — exercises multi-NIC ECMP fan-out
  // through aggs and cores.
  for (const int radix : {8, 12}) {
    ClosParams p;
    p.radix = radix;
    p.oversubscription = 3;
    const FoldedClos clos(p);
    expect_parity(clos.switch_graph(), "clos k=" + std::to_string(radix));
  }
}

// --- Windowed-cache vs eager-precompute network parity -------------------

// Runs the mixed workload (plus optional mid-run failures) on an Opera
// fabric with the given slice-table window.
support::RunSnapshot run_opera(core::OperaConfig cfg, int window, bool inject_failures) {
  cfg.slice_table_window = window;
  core::OperaNetwork net(cfg);
  // With failures, the second one lands *after* the first recovery
  // completed (one cycle after injection: <= 2.7 ms at these scales).
  // This is the regression window for the failure snapshot: between that
  // injection and its own recompute, windowed rebuilds must keep using the
  // first-recovery snapshot — not the live failure set — or they diverge
  // from eager precompute.
  return support::run_mixed_workload(net, inject_failures);
}

void expect_window_parity(const support::Testbed& testbed, bool inject_failures,
                          const std::string& label) {
  const auto cfg = support::opera_testbed(testbed);
  // window = num_slices forces eager; 4 is the smallest legal window and
  // maximizes eviction/rebuild churn.
  support::expect_same_run(run_opera(cfg, cfg.topology.num_racks, inject_failures),
                           run_opera(cfg, 4, inject_failures), label);
}

TEST(SliceWindowParity, K8FabricFctBitIdentical) {
  expect_window_parity(support::kMixedK8, false, "opera k=8 16x4");
}

TEST(SliceWindowParity, K16FabricFctBitIdentical) {
  expect_window_parity(support::kMixedK16, false, "opera k=16 24x8");
}

TEST(SliceWindowParity, K8UnderFailureRecovery) {
  expect_window_parity(support::kMixedK8, true, "opera k=8 +failures");
}

TEST(SliceWindowParity, K16UnderFailureRecovery) {
  expect_window_parity(support::kMixedK16, true, "opera k=16 +failures");
}

TEST(SliceWindowParity, WindowedCacheActuallyEvicts) {
  // Guard against the parity tests silently degenerating to eager-vs-eager.
  core::OperaConfig cfg = support::opera_testbed(support::kMixedK8);
  cfg.slice_table_window = 4;
  core::OperaNetwork net(cfg);
  net.run_until(sim::Time::ms(3));  // ~30 slices > window
  const auto& cache = net.slice_tables();
  EXPECT_FALSE(cache.eager());
  EXPECT_EQ(cache.window(), 4);
  EXPECT_LE(cache.stats().resident, 4u);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().prefetch_builds, 0u);
}

TEST(SliceWindowParity, DegradeMemoryKeepsTheRoutedSlicesResident) {
  // exp::RunGuard's memory-pressure path, mid-run: the window halves from
  // eager (16) to 8 at slice 8, then to the floor at slice 12, and then
  // has nothing left to give. Each shrink must keep the current and next
  // slice (the only ones forwarding reads) resident, and the run must
  // stay bit-identical to an undegraded one.
  const core::OperaConfig cfg = support::opera_testbed(support::kMixedK8);
  core::OperaNetwork net(cfg);
  support::submit_mixed_workload(net);
  const auto& cache = net.slice_tables();
  ASSERT_TRUE(cache.eager());
  ASSERT_EQ(cache.num_slices(), 16);
  const auto expect_routable = [&](const std::string& when) {
    const int s = net.current_slice();
    EXPECT_NE(cache.peek(s), nullptr) << when << ": current slice " << s;
    EXPECT_NE(cache.peek((s + 1) % cache.num_slices()), nullptr)
        << when << ": next slice " << s + 1;
    EXPECT_LE(cache.stats().resident, static_cast<std::size_t>(cache.window())) << when;
  };

  net.run_until(cfg.slice.duration * 8 + cfg.slice.duration / 2);
  ASSERT_EQ(net.current_slice(), 8);
  ASSERT_TRUE(net.degrade_memory());
  EXPECT_EQ(cache.window(), 8);
  expect_routable("first degrade");

  net.run_until(cfg.slice.duration * 12 + cfg.slice.duration / 2);
  ASSERT_EQ(net.current_slice(), 12);
  expect_routable("before the second degrade");
  ASSERT_TRUE(net.degrade_memory());
  EXPECT_EQ(cache.window(), topo::SliceTableCache::kMinWindow);
  expect_routable("second degrade");
  EXPECT_FALSE(net.degrade_memory()) << "the window is already at the floor";

  support::expect_same_run(run_opera(cfg, 0, false), support::finish_run(net),
                           "degraded 16 -> 8 -> 4");
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(SliceWindowParity, K24DefaultWindowStaysBounded) {
  // At 432 racks the table set (~173 MB) overflows the default budget, so
  // the auto window keeps what fits and the boundary prefetch refills it
  // in batches of at least half a window, ahead of every lookup.
  core::OperaConfig cfg;
  cfg.topology.num_racks = 432;
  cfg.topology.num_switches = 12;
  cfg.topology.hosts_per_rack = 12;
  cfg.topology.seed = 1;
  core::OperaNetwork net(cfg);
  const auto& cache = net.slice_tables();
  ASSERT_FALSE(cache.eager());
  const int window = cache.window();
  EXPECT_GT(window, 2 * topo::SliceTableCache::kMinWindow);
  // One boundary per step, over more than two windows of the rotation.
  int batches = 0;
  auto built = cache.stats().prefetch_builds;
  const int steps = 2 * window + 4;
  for (int k = 1; k <= steps; ++k) {
    net.run_until(cfg.slice.duration * k);
    const auto now = cache.stats().prefetch_builds;
    if (now != built) {
      ++batches;
      EXPECT_GE(2 * (now - built), static_cast<std::uint64_t>(window))
          << "boundary " << k << " built a partial batch";
    }
    built = now;
    EXPECT_LE(cache.stats().resident, static_cast<std::size_t>(window));
  }
  EXPECT_GE(net.current_slice(), 2 * window);
  EXPECT_EQ(cache.stats().demand_builds, 0u);
  EXPECT_LE(cache.stats().peak_resident_bytes,
            topo::SliceTableCache::kDefaultBudgetBytes);
  // Steady state refills about half the window per batch: ~4 batches over
  // two windows, never one per boundary.
  EXPECT_GE(batches, 3);
  EXPECT_LE(batches, 6);
}

TEST(SliceWindowParity, PaperScaleDefaultStaysEager) {
  // The paper's 108-rack fabric (~3.3 MB of tables) fits the default
  // budget: every table is built at construction and slice boundaries
  // never build, demand-build or evict.
  core::OperaConfig cfg;
  cfg.topology.num_racks = 108;
  cfg.topology.num_switches = 6;
  cfg.topology.hosts_per_rack = 6;
  core::OperaNetwork net(cfg);
  const auto& cache = net.slice_tables();
  ASSERT_TRUE(cache.eager());
  EXPECT_EQ(cache.stats().resident, static_cast<std::size_t>(cache.num_slices()));
  EXPECT_LE(cache.stats().peak_resident_bytes,
            topo::SliceTableCache::kDefaultBudgetBytes);
  const auto built = cache.stats().prefetch_builds;
  net.run_until(cfg.slice.duration * 6);
  EXPECT_GE(net.current_slice(), 5);
  EXPECT_EQ(cache.stats().prefetch_builds, built);
  EXPECT_EQ(cache.stats().demand_builds, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(RoutingParity, DisconnectedAndTrivialGraphs) {
  Graph lonely(1);
  expect_parity(lonely, "single vertex");
  Graph two(5);
  two.add_edge(0, 1);
  two.add_edge(2, 3);  // vertex 4 isolated
  expect_parity(two, "disconnected components");
  expect_parity(Graph{}, "empty graph");
}

}  // namespace
}  // namespace opera::topo
