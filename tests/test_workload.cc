#include "workload/flow_size_dist.h"
#include "workload/synthetic.h"

#include <gtest/gtest.h>

#include <set>

namespace opera::workload {
namespace {

TEST(FlowSizeDist, SamplesWithinSupport) {
  for (const auto& dist : {FlowSizeDistribution::datamining(),
                           FlowSizeDistribution::websearch(),
                           FlowSizeDistribution::hadoop()}) {
    sim::Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
      const auto s = dist.sample(rng);
      EXPECT_GE(s, static_cast<std::int64_t>(dist.flow_cdf().front().bytes) - 1)
          << dist.name();
      EXPECT_LE(s, static_cast<std::int64_t>(dist.flow_cdf().back().bytes) + 1)
          << dist.name();
    }
  }
}

TEST(FlowSizeDist, EmpiricalMedianMatchesCdf) {
  const auto dist = FlowSizeDistribution::datamining();
  sim::Rng rng(2);
  std::vector<std::int64_t> samples;
  for (int i = 0; i < 20'000; ++i) samples.push_back(dist.sample(rng));
  std::sort(samples.begin(), samples.end());
  // CDF says 50% at ~1100 bytes.
  const double median = static_cast<double>(samples[samples.size() / 2]);
  EXPECT_GT(median, 700.0);
  EXPECT_LT(median, 1'700.0);
}

TEST(FlowSizeDist, DataminingIsByteHeavy) {
  // The paper's premise: nearly all Datamining bytes are in bulk flows
  // (>= 15 MB), while nearly all of its *flows* are small.
  const auto dist = FlowSizeDistribution::datamining();
  EXPECT_GT(dist.byte_fraction_at_or_above(15e6), 0.75);
  // Websearch is the opposite: no flow reaches 15 MB (§5.3).
  const auto ws = FlowSizeDistribution::websearch();
  EXPECT_LT(ws.byte_fraction_at_or_above(15e6), 0.10);
}

TEST(FlowSizeDist, ByteCdfMonotoneAndNormalized) {
  for (const auto& dist : {FlowSizeDistribution::datamining(),
                           FlowSizeDistribution::websearch(),
                           FlowSizeDistribution::hadoop()}) {
    const auto cdf = dist.byte_cdf();
    ASSERT_FALSE(cdf.empty());
    double prev = 0.0;
    for (const auto& p : cdf) {
      EXPECT_GE(p.cdf + 1e-12, prev);
      prev = p.cdf;
    }
    EXPECT_DOUBLE_EQ(cdf.back().cdf, 1.0);
  }
}

TEST(FlowSizeDist, MeanIsSensible) {
  // Websearch mean should be O(1 MB); datamining higher (heavy tail).
  EXPECT_GT(FlowSizeDistribution::websearch().mean_bytes(), 2e5);
  EXPECT_LT(FlowSizeDistribution::websearch().mean_bytes(), 5e6);
  EXPECT_GT(FlowSizeDistribution::datamining().mean_bytes(), 1e6);
}

TEST(Poisson, RateMatchesLoad) {
  const auto dist = FlowSizeDistribution::websearch();
  sim::Rng rng(3);
  const double load = 0.10;
  const auto flows = poisson_workload(dist, 64, load, 10e9, sim::Time::ms(100), rng);
  ASSERT_FALSE(flows.empty());
  double bytes = 0.0;
  for (const auto& f : flows) {
    EXPECT_NE(f.src_host, f.dst_host);
    EXPECT_LT(f.src_host, 64);
    bytes += static_cast<double>(f.size_bytes);
  }
  // Offered bits over 100 ms should be ~10% of 64x10G.
  const double offered_bps = bytes * 8.0 / 0.1;
  EXPECT_NEAR(offered_bps / (64.0 * 10e9), load, 0.35 * load);
}

TEST(Poisson, ArrivalsSorted) {
  const auto dist = FlowSizeDistribution::hadoop();
  sim::Rng rng(4);
  const auto flows = poisson_workload(dist, 16, 0.2, 10e9, sim::Time::ms(20), rng);
  for (std::size_t i = 1; i < flows.size(); ++i) {
    EXPECT_GE(flows[i].start, flows[i - 1].start);
  }
}

// Regression: load 0 (also what a non-numeric --load used to become) made
// the mean inter-arrival time infinite, and the arrival loop never ended
// once the assert was compiled out.
TEST(Poisson, RejectsNonPositiveLoadAndTooFewHosts) {
  const auto dist = FlowSizeDistribution::hadoop();
  sim::Rng rng(4);
  const auto duration = sim::Time::ms(1);
  EXPECT_THROW((void)poisson_workload(dist, 16, 0.0, 10e9, duration, rng),
               std::invalid_argument);
  EXPECT_THROW((void)poisson_workload(dist, 16, -0.1, 10e9, duration, rng),
               std::invalid_argument);
  EXPECT_THROW((void)poisson_workload(dist, 1, 0.2, 10e9, duration, rng),
               std::invalid_argument);
}

TEST(Shuffle, ExcludesRackLocal) {
  sim::Rng rng(5);
  const auto flows = shuffle_workload(16, 4, 100'000, sim::Time::zero(), rng);
  // 16 hosts, 4 racks: each host sends to 12 non-local peers.
  EXPECT_EQ(flows.size(), 16u * 12u);
  for (const auto& f : flows) {
    EXPECT_NE(f.src_host / 4, f.dst_host / 4);
    EXPECT_EQ(f.size_bytes, 100'000);
  }
}

TEST(Shuffle, StaggerBoundsStarts) {
  sim::Rng rng(6);
  const auto flows = shuffle_workload(8, 2, 1'000, sim::Time::ms(10), rng);
  for (const auto& f : flows) {
    EXPECT_LT(f.start, sim::Time::ms(10));
  }
}

TEST(Permutation, IsPermutationAndRackDisjoint) {
  sim::Rng rng(7);
  const auto flows = permutation_workload(24, 3, 1'000'000, rng);
  EXPECT_EQ(flows.size(), 24u);
  std::set<std::int32_t> dsts;
  for (const auto& f : flows) {
    EXPECT_NE(f.src_host / 3, f.dst_host / 3);
    dsts.insert(f.dst_host);
  }
  EXPECT_EQ(dsts.size(), 24u);  // each host receives exactly one flow
}

TEST(Hotrack, PairsRackZeroAndOne) {
  const auto flows = hotrack_workload(6, 500'000);
  EXPECT_EQ(flows.size(), 6u);
  for (const auto& f : flows) {
    EXPECT_LT(f.src_host, 6);
    EXPECT_GE(f.dst_host, 6);
    EXPECT_LT(f.dst_host, 12);
  }
}

TEST(Skew, ActiveFractionRespected) {
  sim::Rng rng(8);
  const auto flows = skew_workload(20, 4, 0.2, 10'000, rng);
  std::set<std::int32_t> racks;
  for (const auto& f : flows) {
    racks.insert(f.src_host / 4);
    racks.insert(f.dst_host / 4);
  }
  EXPECT_EQ(racks.size(), 4u);  // 20% of 20 racks
  // all-to-all among 4 racks x 4 hosts: 4*3 rack pairs x 4 host pairs.
  EXPECT_EQ(flows.size(), 4u * 3u * 4u);
}

}  // namespace
}  // namespace opera::workload
