// RotorNet on the packet engine: OperaNetwork built from
// FabricConfig::rotornet_config() (unison schedule, no expander plane).
#include <gtest/gtest.h>

#include "core/fabric.h"
#include "exp/run_guard.h"

namespace opera::core {
namespace {

OperaConfig small_config(bool hybrid) {
  auto cfg = FabricConfig::make(FabricKind::kRotorNet);
  cfg.rotornet.num_racks = 16;
  cfg.rotornet.num_switches = hybrid ? 5 : 4;  // 4 rotors either way
  cfg.rotornet.hybrid = hybrid;
  cfg.rotornet.seed = 21;
  cfg.rotornet_hosts_per_rack = 4;
  cfg.seed = 22;
  return cfg.rotornet_config();
}

TEST(RotorNetNetwork, NonHybridBulkCompletes) {
  OperaNetwork net(small_config(false));
  net.submit_flow(0, 60, 5'000'000, sim::Time::zero());
  net.run_until(sim::Time::ms(60));
  ASSERT_EQ(net.tracker().completed(), 1u);
}

TEST(RotorNetNetwork, NonHybridShortFlowWaitsForCircuits) {
  // The all-optical RotorNet's key weakness (paper Fig. 7c): even a tiny
  // flow waits for a direct/VLB circuit, so FCT is on the slice/cycle
  // scale (hundreds of us), orders beyond Opera's expander path.
  OperaNetwork net(small_config(false));
  net.submit_flow(0, 60, 1'000, sim::Time::zero());
  net.run_until(sim::Time::ms(20));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_GT(net.tracker().completions()[0].fct().to_us(), 90.0);
}

TEST(RotorNetNetwork, HybridShortFlowFast) {
  OperaNetwork net(small_config(true));
  net.submit_flow(0, 60, 1'000, sim::Time::zero());
  net.run_until(sim::Time::ms(5));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions()[0].fct().to_us(), 20.0);
}

TEST(RotorNetNetwork, HybridMixedTraffic) {
  OperaNetwork net(small_config(true));
  net.submit_flow(0, 60, 20'000'000, sim::Time::zero());  // bulk via rotors
  for (int i = 0; i < 10; ++i) {
    net.submit_flow(1, 61, 5'000, sim::Time::us(100 * i));  // NDP via core
  }
  net.run_until(sim::Time::ms(120));
  EXPECT_EQ(net.tracker().completed(), 11u);
  const auto small = net.tracker().fct_us(0, 1'000'000);
  EXPECT_LT(small.percentile(99), 100.0);
}

TEST(RotorNetNetwork, IntraRackIsImmediate) {
  OperaNetwork net(small_config(false));
  net.submit_flow(0, 1, 50'000, sim::Time::zero());
  net.run_until(sim::Time::ms(1));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_LT(net.tracker().completions()[0].fct().to_us(), 80.0);
}

TEST(RotorNetNetwork, UniformBulkLoadCompletes) {
  OperaNetwork net(small_config(false));
  // One 500 KB bulk flow from each rack to the next (ring pattern).
  for (int r = 0; r < 16; ++r) {
    net.submit_flow(r * 4, ((r + 1) % 16) * 4, 500'000, sim::Time::zero());
  }
  net.run_until(sim::Time::ms(60));
  EXPECT_EQ(net.tracker().completed(), 16u);
}

// The checkpoint fingerprint must cover the coordinator's grant-order rng
// and the slice rotation, not just the ports: an idle fabric's ports look
// the same under any network seed, but a restored run with a different rng
// cursor would grant in a different order.
TEST(RotorNetNetwork, FingerprintCoversGrantOrderAndSliceRotation) {
  const auto digest = [](bool hybrid, std::uint64_t seed) {
    auto cfg = FabricConfig::make(FabricKind::kRotorNet);
    cfg.rotornet.hybrid = hybrid;
    cfg.scale(16, 4);
    cfg.seed = seed;
    const auto net = NetworkFactory::build(cfg);
    net->run_until(sim::Time::ms(1));
    return exp::state_digest(*net);
  };
  for (const bool hybrid : {false, true}) {
    EXPECT_NE(digest(hybrid, 1), digest(hybrid, 2)) << "hybrid=" << hybrid;
    EXPECT_EQ(digest(hybrid, 1), digest(hybrid, 1)) << "hybrid=" << hybrid;
  }
}

}  // namespace
}  // namespace opera::core
