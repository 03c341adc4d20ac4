// ShardParityTest — the sharded-core contract: a run sharded over N rack
// domains is bit-identical to the 1-shard run. Opera is exercised at the
// k=8 (16x4) and k=16 (24x8) test fabrics for threads ∈ {1, 2, 4}, over a
// mixed workload (NDP low-latency mice plus RotorLB bulk elephants with
// VLB relaying) and including a mid-run failure-recovery scenario
// (uplink + rotor-switch failures with hello-protocol reconvergence); the
// parameterized suite runs the same workload on every packet fabric.
//
// "Bit-identical" is checked on everything the experiment layer reads,
// through support::expect_same_run: the full completion stream (flow id,
// start, completion timestamp — in stream order, which the canonical lane
// merge makes deterministic), the executed event count, the multi-layer
// state digest, and on Opera and RotorNet the ToR trim/drop counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/fabric.h"
#include "core/opera_network.h"
#include "support/support.h"

namespace opera {
namespace {

support::RunSnapshot run_opera(core::OperaConfig cfg, int threads,
                               bool inject_failures) {
  cfg.threads = threads;
  core::OperaNetwork net(cfg);
  EXPECT_EQ(net.num_shards(), std::min<int>(threads, net.num_racks()));
  return support::run_mixed_workload(net, inject_failures);
}

void expect_parity(const support::Testbed& testbed, bool inject_failures,
                   const std::string& label) {
  const auto cfg = support::opera_testbed(testbed);
  const auto one = run_opera(cfg, 1, inject_failures);
  for (const int threads : {2, 4}) {
    support::expect_same_run(one, run_opera(cfg, threads, inject_failures),
                             label + " threads=" + std::to_string(threads));
  }
}

TEST(ShardParityTest, K8MixedWorkloadBitIdentical) {
  expect_parity(support::kMixedK8, false, "opera k=8 16x4");
}

TEST(ShardParityTest, K16MixedWorkloadBitIdentical) {
  expect_parity(support::kMixedK16, false, "opera k=16 24x8");
}

TEST(ShardParityTest, K8FailureRecoveryBitIdentical) {
  expect_parity(support::kMixedK8, true, "opera k=8 +failures");
}

TEST(ShardParityTest, K16FailureRecoveryBitIdentical) {
  expect_parity(support::kMixedK16, true, "opera k=16 +failures");
}

TEST(ShardParityTest, EnvThreadsKnobResolvesIntoShardCount) {
  core::OperaConfig cfg = support::opera_testbed(support::kMixedK8);
  cfg.threads = 2;
  core::OperaNetwork net(cfg);
  EXPECT_EQ(net.num_shards(), 2);
  // More shards than racks clamps to rack granularity.
  cfg.threads = 64;
  core::OperaNetwork clamped(cfg);
  EXPECT_EQ(clamped.num_shards(), 16);
}

// --- Every packet fabric ----------------------------------------------------

struct FabricCase {
  const char* name;
  core::FabricKind kind;
  bool hybrid;  // RotorNet only
};

// Keeps the discovered ctest names free of the raw bytes (pointers
// included) gtest's fallback printer would dump.
void PrintTo(const FabricCase& c, std::ostream* os) { *os << c.name; }

class ShardParityTest : public ::testing::TestWithParam<FabricCase> {
 protected:
  // The parameter's fabric at 16 racks x 4 hosts, 100 KB bulk threshold.
  [[nodiscard]] core::FabricConfig config(int threads) const {
    auto cfg = core::FabricConfig::make(GetParam().kind);
    cfg.rotornet.hybrid = GetParam().hybrid;
    cfg.scale(16, 4);
    cfg.bulk_threshold_bytes = 100'000;
    cfg.threads = threads;
    return cfg;
  }
};

support::RunSnapshot run_fabric(const core::FabricConfig& cfg) {
  const auto net = core::NetworkFactory::build(cfg);
  EXPECT_EQ(net->num_shards(), std::min<int>(cfg.threads, net->num_racks()));
  return support::run_mixed_workload(*net);
}

TEST_P(ShardParityTest, CompletionStreamAndEventCountBitIdentical) {
  const auto one = run_fabric(config(1));
  for (const int threads : {2, 4}) {
    support::expect_same_run(one, run_fabric(config(threads)),
                             "threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFabrics, ShardParityTest,
    ::testing::Values(FabricCase{"opera", core::FabricKind::kOpera, false},
                      FabricCase{"clos", core::FabricKind::kFoldedClos, false},
                      FabricCase{"expander", core::FabricKind::kExpander, false},
                      FabricCase{"rotornet", core::FabricKind::kRotorNet, false},
                      FabricCase{"rotornet_hybrid", core::FabricKind::kRotorNet, true}),
    [](const ::testing::TestParamInfo<FabricCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace opera
