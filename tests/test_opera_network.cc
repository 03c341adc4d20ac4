#include "core/opera_network.h"

#include <gtest/gtest.h>

#include "support/support.h"

namespace opera::core {
namespace {

constexpr support::Testbed kTestbed{.topology_seed = 11, .network_seed = 12};

TEST(OperaNetwork, Builds) {
  const auto cfg = support::opera_testbed(kTestbed);
  OperaNetwork net(cfg);
  EXPECT_EQ(net.num_hosts(), 64);
  EXPECT_EQ(net.num_racks(), 16);
  EXPECT_EQ(net.rack_of_host(0), 0);
  EXPECT_EQ(net.rack_of_host(63), 15);
}

TEST(OperaNetwork, LowLatencyFlowCompletesFast) {
  OperaNetwork net(support::opera_testbed(kTestbed));
  // 15 KB inter-rack flow: low-latency class, expander path, should finish
  // in tens of microseconds, far less than a slice.
  const auto id = net.submit_flow(0, 60, 15'000, sim::Time::zero());
  net.run_until(sim::Time::ms(5));
  ASSERT_EQ(net.tracker().completed(), 1u);
  const auto& rec = net.tracker().completions().front();
  EXPECT_EQ(rec.flow.id, id);
  EXPECT_LT(rec.fct().to_us(), 100.0);
}

TEST(OperaNetwork, MinimumLatencyNearPropagation) {
  OperaNetwork net(support::opera_testbed(kTestbed));
  // Single-packet flow: FCT ~ serialization (x hops) + propagation.
  net.submit_flow(0, 60, 1'000, sim::Time::zero());
  net.run_until(sim::Time::ms(2));
  ASSERT_EQ(net.tracker().completed(), 1u);
  const double fct_us = net.tracker().completions().front().fct().to_us();
  EXPECT_GT(fct_us, 1.0);   // at least a couple of link crossings
  EXPECT_LT(fct_us, 30.0);  // and nowhere near a slice time
}

TEST(OperaNetwork, BulkFlowUsesDirectCircuitsAndCompletes) {
  auto cfg = support::opera_testbed(kTestbed);
  OperaNetwork net(cfg);
  // 20 MB >= threshold: bulk. Must wait for direct circuits, completing
  // within a few cycles (cycle = 16 slices x 99 us = 1.58 ms; 20 MB at
  // ~(u-1)/N of 10G per pair needs several cycles).
  net.submit_flow(0, 60, 20'000'000, sim::Time::zero());
  net.run_until(sim::Time::ms(80));
  ASSERT_EQ(net.tracker().completed(), 1u) << "bulk flow did not complete";
  const auto& rec = net.tracker().completions().front();
  EXPECT_EQ(rec.flow.tclass, net::TrafficClass::kBulk);
  // Sanity: finished in well under the run horizon but over a slice.
  EXPECT_GT(rec.fct().to_ms(), 0.099);
  EXPECT_LT(rec.fct().to_ms(), 80.0);
}

TEST(OperaNetwork, IntraRackFlowBypassesCircuits) {
  OperaNetwork net(support::opera_testbed(kTestbed));
  // Hosts 0 and 1 share rack 0; even a "bulk"-sized flow goes over the ToR
  // low-latency path at line rate: 16 MB at 10 Gb/s ~ 13.4 ms.
  net.submit_flow(0, 1, 16'000'000, sim::Time::zero());
  net.run_until(sim::Time::ms(40));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions().front().fct().to_ms(), 25.0);
}

TEST(OperaNetwork, ManyLowLatencyFlows) {
  OperaNetwork net(support::opera_testbed(kTestbed));
  sim::Rng rng(99);
  int submitted = 0;
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(64));
    auto dst = static_cast<std::int32_t>(rng.index(64));
    if (dst == src) dst = (dst + 1) % 64;
    net.submit_flow(src, dst, 2'000 + static_cast<std::int64_t>(rng.index(50'000)),
                    sim::Time::us(static_cast<std::int64_t>(rng.index(1'000))));
    ++submitted;
  }
  net.run_until(sim::Time::ms(30));
  EXPECT_EQ(net.tracker().completed(), static_cast<std::size_t>(submitted));
}

TEST(OperaNetwork, MixedBulkAndLowLatency) {
  OperaNetwork net(support::opera_testbed(kTestbed));
  net.submit_flow(0, 60, 20'000'000, sim::Time::zero());  // bulk
  for (int i = 0; i < 20; ++i) {
    net.submit_flow(1, 61, 10'000, sim::Time::us(100 * i));  // low-latency
  }
  net.run_until(sim::Time::ms(80));
  EXPECT_EQ(net.tracker().completed(), 21u);
  // Low-latency FCTs must remain small despite the bulk transfer.
  const auto ll = net.tracker().fct_us(0, 1'000'000);
  EXPECT_LT(ll.percentile(99), 200.0);
}

TEST(OperaNetwork, SliceClockMatchesSchedule) {
  OperaNetwork net(support::opera_testbed(kTestbed));
  EXPECT_EQ(net.slice_at(sim::Time::zero()), 0);
  EXPECT_EQ(net.slice_at(sim::Time::us(99)), 1);
  EXPECT_EQ(net.slice_at(sim::Time::us(99) * 16), 0);  // wraps at cycle
  net.run_until(sim::Time::us(250));
  EXPECT_EQ(net.current_slice(), 2);
}

TEST(OperaNetwork, BulkSkewUsesVlb) {
  // Rack 0 -> rack 1 only (hot rack): direct capacity between one pair is
  // (u-1)/N of a link; VLB must carry most of the bytes for the flow to
  // finish quickly.
  auto cfg = support::opera_testbed(kTestbed);
  OperaNetwork net(cfg);
  for (int h = 0; h < 4; ++h) {
    net.submit_flow(h, 4 + h, 30'000'000, sim::Time::zero(),
                    net::TrafficClass::kBulk);
  }
  net.run_until(sim::Time::ms(200));
  EXPECT_EQ(net.tracker().completed(), 4u);

  // With VLB disabled the same workload should be distinctly slower.
  auto cfg2 = support::opera_testbed(kTestbed);
  cfg2.enable_vlb = false;
  OperaNetwork net2(cfg2);
  for (int h = 0; h < 4; ++h) {
    net2.submit_flow(h, 4 + h, 30'000'000, sim::Time::zero(),
                     net::TrafficClass::kBulk);
  }
  net2.run_until(sim::Time::ms(200));
  double vlb_worst = 0.0;
  for (const auto& rec : net.tracker().completions()) {
    vlb_worst = std::max(vlb_worst, rec.fct().to_ms());
  }
  double novlb_worst = 0.0;
  for (const auto& rec : net2.tracker().completions()) {
    novlb_worst = std::max(novlb_worst, rec.fct().to_ms());
  }
  if (net2.tracker().completed() < 4u) novlb_worst = 200.0;  // still running
  EXPECT_LT(vlb_worst, novlb_worst);
}

}  // namespace
}  // namespace opera::core
