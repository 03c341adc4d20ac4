#include "topo/failures.h"

#include <gtest/gtest.h>

#include "support/support.h"

namespace opera::topo {
namespace {

constexpr OperaParams kSmall =
    support::Testbed{.hosts_per_rack = 6, .topology_seed = 5}.topology();

TEST(Failures, NoFailuresNoLoss) {
  const OperaTopology topo(kSmall);
  sim::Rng rng(1);
  for (const auto kind :
       {FailureKind::kLink, FailureKind::kTor, FailureKind::kCircuitSwitch}) {
    const auto report = analyze_opera_failures(topo, kind, 0.0, rng);
    EXPECT_DOUBLE_EQ(report.worst_slice_connectivity_loss, 0.0);
    EXPECT_DOUBLE_EQ(report.any_slice_connectivity_loss, 0.0);
    EXPECT_GT(report.avg_path_length, 0.0);
  }
}

TEST(Failures, OperaSurvivesOneSwitchFailure) {
  // The paper: Opera withstands 2/6 circuit switches failing (Fig. 11).
  // Use u=6 so a failed switch still leaves 4-5 active matchings per slice.
  OperaParams p;
  p.num_racks = 24;
  p.num_switches = 6;
  p.seed = 2;
  const OperaTopology topo(p);
  sim::Rng rng(2);
  const auto report =
      analyze_opera_failures(topo, FailureKind::kCircuitSwitch, 1.0 / 6.0, rng);
  EXPECT_DOUBLE_EQ(report.worst_slice_connectivity_loss, 0.0);
}

TEST(Failures, MassiveSwitchFailureDisconnects) {
  const OperaTopology topo(kSmall);
  sim::Rng rng(3);
  // 3 of 4 switches failed: slices where the survivor is also
  // reconfiguring have no links at all.
  const auto report =
      analyze_opera_failures(topo, FailureKind::kCircuitSwitch, 0.75, rng);
  EXPECT_GT(report.worst_slice_connectivity_loss, 0.5);
}

TEST(Failures, LinkFailuresIncreaseLossMonotonically) {
  const OperaTopology topo(kSmall);
  double prev = 0.0;
  for (const double frac : {0.05, 0.2, 0.4}) {
    sim::Rng rng(42);  // same draw sequence, nested failure sets not
                       // guaranteed, so allow small non-monotonic noise
    const auto report = analyze_opera_failures(topo, FailureKind::kLink, frac, rng);
    EXPECT_GE(report.any_slice_connectivity_loss + 0.05, prev);
    prev = report.any_slice_connectivity_loss;
  }
}

TEST(Failures, TorFailuresExcludeFailedFromDenominator) {
  const OperaTopology topo(kSmall);
  sim::Rng rng(4);
  // Fail 25% of ToRs; surviving pairs should mostly stay connected (Opera
  // tolerates ~7% at paper scale; small scale is more fragile but a single
  // seed check suffices for plumbing).
  const auto report = analyze_opera_failures(topo, FailureKind::kTor, 0.25, rng);
  EXPECT_LT(report.worst_slice_connectivity_loss, 1.0);
}

TEST(Failures, ClosLinkFailures) {
  ClosParams p;
  p.radix = 8;
  p.oversubscription = 3;
  const FoldedClos clos(p);
  sim::Rng rng(5);
  const auto none = analyze_clos_failures(clos, FailureKind::kLink, 0.0, rng);
  EXPECT_DOUBLE_EQ(none.worst_slice_connectivity_loss, 0.0);
  EXPECT_NEAR(none.avg_path_length, 4.0, 1.0);  // mostly inter-pod
  const auto heavy = analyze_clos_failures(clos, FailureKind::kLink, 0.4, rng);
  EXPECT_GT(heavy.worst_slice_connectivity_loss, 0.0);
}

TEST(Failures, ClosTorFailuresDontCountFailedPairs) {
  ClosParams p;
  p.radix = 8;
  p.oversubscription = 3;
  const FoldedClos clos(p);
  sim::Rng rng(6);
  // ToR failures leave the rest of the Clos fabric intact: no loss among
  // the survivors.
  const auto report = analyze_clos_failures(clos, FailureKind::kTor, 0.25, rng);
  EXPECT_DOUBLE_EQ(report.worst_slice_connectivity_loss, 0.0);
}

TEST(Failures, ExpanderResilience) {
  ExpanderParams p;
  p.num_tors = 32;
  p.uplinks = 7;
  p.seed = 7;
  const ExpanderTopology exp(p);
  sim::Rng rng(7);
  // u=7 expander: very fault tolerant (paper Fig. 20).
  const auto report = analyze_expander_failures(exp, FailureKind::kLink, 0.1, rng);
  EXPECT_DOUBLE_EQ(report.worst_slice_connectivity_loss, 0.0);
}

TEST(Failures, SubsetPathStats) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  // Vertex 4 isolated.
  const auto stats = subset_path_stats(g, {0, 2, 4});
  EXPECT_EQ(stats.connected_pairs, 2u);     // 0<->2
  EXPECT_EQ(stats.disconnected_pairs, 4u);  // pairs with 4
  EXPECT_DOUBLE_EQ(stats.average, 2.0);
}

TEST(Failures, SubsetPathStatsWithMask) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(3, 2);
  std::vector<bool> alive(4, true);
  alive[1] = false;  // forces 0->2 through 3
  const auto stats = subset_path_stats(g, {0, 2}, &alive);
  EXPECT_EQ(stats.connected_pairs, 2u);
  EXPECT_DOUBLE_EQ(stats.average, 2.0);
}

}  // namespace
}  // namespace opera::topo
