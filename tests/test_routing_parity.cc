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
  OperaParams p;
  p.num_racks = 16;
  p.num_switches = 4;
  p.seed = 3;
  const OperaTopology topo(p);
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
  OperaParams p;
  p.num_racks = 16;
  p.num_switches = 4;
  p.seed = 3;
  const OperaTopology topo(p);
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
// failure, and one with the reconfiguring switch included (degree 12).
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

  const Graph full = topo.slice_graph(431, nullptr, true);
  Vertex max_degree = 0;
  for (Vertex v = 0; v < full.num_vertices(); ++v) {
    max_degree = std::max(max_degree, full.degree(v));
  }
  EXPECT_EQ(max_degree, 12);
  expect_parity(full, "opera432 slice 431 +reconfiguring");
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

struct Completion {
  std::uint64_t id;
  std::int64_t start_ps;
  std::int64_t end_ps;
  friend bool operator==(const Completion&, const Completion&) = default;
};

struct NetOutcome {
  std::vector<Completion> completions;
  core::OperaNetwork::TorStats tor;
};

// Builds an Opera fabric with the given slice-table window, drives a
// deterministic mixed bulk/low-latency workload (plus optional mid-run
// failures), and returns every flow completion.
NetOutcome run_opera(const core::OperaConfig& base, int window,
                     bool inject_failures) {
  core::OperaConfig cfg = base;
  cfg.slice_table_window = window;
  core::OperaNetwork net(cfg);

  sim::Rng wl(99);
  const auto hosts = static_cast<std::size_t>(net.num_hosts());
  for (int i = 0; i < 160; ++i) {
    const auto src = static_cast<std::int32_t>(wl.index(hosts));
    auto dst = static_cast<std::int32_t>(wl.index(hosts));
    while (dst == src) dst = static_cast<std::int32_t>(wl.index(hosts));
    // Mix of NDP mice and RotorLB elephants (cfg.bulk_threshold_bytes is
    // lowered below so both transports run).
    const std::int64_t bytes = (i % 4 == 0) ? 600'000 : 20'000;
    net.submit_flow(src, dst, bytes, sim::Time::us(5 * i));
  }
  if (inject_failures) {
    net.run_until(sim::Time::us(300));
    net.inject_uplink_failure(1, 0);
    // The second failure lands *after* the first recovery completed (one
    // cycle after injection: <= 2.7 ms at these scales). This is the
    // regression window for the failure snapshot: between this injection
    // and its own recompute, windowed rebuilds must keep using the
    // first-recovery snapshot — not the live failure set — or they
    // diverge from eager precompute.
    net.run_until(sim::Time::ms(3));
    net.inject_switch_failure(2);
  }
  net.run_until(sim::Time::ms(40));

  NetOutcome out;
  out.tor = net.tor_stats();
  for (const auto& rec : net.tracker().completions()) {
    out.completions.push_back(Completion{rec.flow.id, rec.flow.start.picoseconds(),
                                         rec.end.picoseconds()});
  }
  std::sort(out.completions.begin(), out.completions.end(),
            [](const Completion& a, const Completion& b) { return a.id < b.id; });
  return out;
}

void expect_window_parity(const core::OperaConfig& cfg, bool inject_failures,
                          const std::string& label) {
  // window = num_slices forces eager; 4 is the smallest legal window and
  // maximizes eviction/rebuild churn.
  const NetOutcome eager = run_opera(cfg, cfg.topology.num_racks, inject_failures);
  const NetOutcome windowed = run_opera(cfg, 4, inject_failures);
  ASSERT_FALSE(eager.completions.empty()) << label;
  ASSERT_EQ(eager.completions.size(), windowed.completions.size()) << label;
  for (std::size_t i = 0; i < eager.completions.size(); ++i) {
    EXPECT_EQ(eager.completions[i], windowed.completions[i])
        << label << ": completion " << i;
  }
  EXPECT_EQ(eager.tor.trims, windowed.tor.trims) << label;
  EXPECT_EQ(eager.tor.drops, windowed.tor.drops) << label;
  EXPECT_EQ(eager.tor.forward_drops, windowed.tor.forward_drops) << label;
}

core::OperaConfig small_opera(Vertex racks, int u, int hosts_per_rack) {
  core::OperaConfig cfg;
  cfg.topology.num_racks = racks;
  cfg.topology.num_switches = u;
  cfg.topology.hosts_per_rack = hosts_per_rack;
  cfg.topology.seed = 3;
  // Low threshold so the 600 KB elephants ride the RotorLB bulk path.
  cfg.bulk_threshold_bytes = 100'000;
  return cfg;
}

TEST(SliceWindowParity, K8FabricFctBitIdentical) {
  expect_window_parity(small_opera(16, 4, 4), false, "opera k=8 16x4");
}

TEST(SliceWindowParity, K16FabricFctBitIdentical) {
  expect_window_parity(small_opera(24, 8, 8), false, "opera k=16 24x8");
}

TEST(SliceWindowParity, K8UnderFailureRecovery) {
  expect_window_parity(small_opera(16, 4, 4), true, "opera k=8 +failures");
}

TEST(SliceWindowParity, K16UnderFailureRecovery) {
  expect_window_parity(small_opera(24, 8, 8), true, "opera k=16 +failures");
}

TEST(SliceWindowParity, WindowedCacheActuallyEvicts) {
  // Guard against the parity tests silently degenerating to eager-vs-eager.
  core::OperaConfig cfg = small_opera(16, 4, 4);
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
