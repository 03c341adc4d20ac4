// ShardParityTest — the sharded-core contract: a run sharded over N rack
// domains is bit-identical to the 1-shard run. Opera is exercised at the
// k=8 (16x4) and k=16 (24x8) test fabrics for threads ∈ {1, 2, 4}, over a
// mixed workload (NDP low-latency mice plus RotorLB bulk elephants with
// VLB relaying) and including a mid-run failure-recovery scenario
// (uplink + rotor-switch failures with hello-protocol reconvergence); the
// parameterized suite runs the same workload on every packet fabric.
//
// "Bit-identical" is checked on everything the experiment layer reads:
// the full completion stream (flow id, start, completion timestamp — in
// stream order, which the canonical lane merge makes deterministic), ToR
// trim/drop/forward-drop counters, and the executed event count.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "core/opera_network.h"
#include "exp/run_guard.h"
#include "sim/rng.h"

namespace opera {
namespace {

struct Completion {
  std::uint64_t id;
  std::int64_t start_ps;
  std::int64_t end_ps;
  bool operator==(const Completion&) const = default;
};

struct RunOutput {
  std::vector<Completion> completions;
  std::uint64_t trims = 0;
  std::uint64_t drops = 0;
  std::uint64_t forward_drops = 0;
  std::uint64_t events = 0;
  bool operator==(const RunOutput&) const = default;
};

core::OperaConfig small_opera(topo::Vertex racks, int u, int hosts_per_rack) {
  core::OperaConfig cfg;
  cfg.topology.num_racks = racks;
  cfg.topology.num_switches = u;
  cfg.topology.hosts_per_rack = hosts_per_rack;
  cfg.topology.seed = 3;
  // Low threshold so 600 KB elephants ride the RotorLB bulk path (same
  // testbed convention as test_routing_parity.cc).
  cfg.bulk_threshold_bytes = 100'000;
  return cfg;
}

// 160 flows: NDP mice plus elephants (RotorLB bulk on the rotor fabrics).
void submit_mixed_workload(core::Network& net) {
  sim::Rng wl(99);
  const auto hosts = static_cast<std::size_t>(net.num_hosts());
  for (int i = 0; i < 160; ++i) {
    const auto src = static_cast<std::int32_t>(wl.index(hosts));
    auto dst = static_cast<std::int32_t>(wl.index(hosts));
    while (dst == src) dst = static_cast<std::int32_t>(wl.index(hosts));
    const std::int64_t bytes = (i % 4 == 0) ? 600'000 : 20'000;
    net.submit_flow(src, dst, bytes, sim::Time::us(5 * i));
  }
}

std::vector<Completion> completion_stream(const core::Network& net) {
  std::vector<Completion> out;
  for (const auto& rec : net.tracker().completions()) {
    out.push_back(
        Completion{rec.flow.id, rec.flow.start.picoseconds(), rec.end.picoseconds()});
  }
  return out;
}

RunOutput run_opera(const core::OperaConfig& base, int threads, bool inject_failures) {
  core::OperaConfig cfg = base;
  cfg.threads = threads;
  core::OperaNetwork net(cfg);
  EXPECT_EQ(net.num_shards(), std::min<int>(threads, net.num_racks()));

  submit_mixed_workload(net);
  if (inject_failures) {
    // Mid-run, at fixed simulated times, with traffic in flight; the
    // second failure lands after the first recovery's reconvergence.
    net.run_until(sim::Time::us(300));
    net.inject_uplink_failure(1, 0);
    net.run_until(sim::Time::ms(3));
    net.inject_switch_failure(2);
  }
  net.run_until(sim::Time::ms(40));

  RunOutput out;
  out.completions = completion_stream(net);
  const auto stats = net.tor_stats();
  out.trims = stats.trims;
  out.drops = stats.drops;
  out.forward_drops = stats.forward_drops;
  out.events = net.engine().events_executed();
  return out;
}

void expect_parity(const core::OperaConfig& cfg, bool inject_failures,
                   const std::string& label) {
  const RunOutput one = run_opera(cfg, 1, inject_failures);
  ASSERT_FALSE(one.completions.empty()) << label;
  for (const int threads : {2, 4}) {
    const RunOutput sharded = run_opera(cfg, threads, inject_failures);
    ASSERT_EQ(one.completions.size(), sharded.completions.size())
        << label << " threads=" << threads;
    for (std::size_t i = 0; i < one.completions.size(); ++i) {
      ASSERT_EQ(one.completions[i], sharded.completions[i])
          << label << " threads=" << threads << ": completion " << i;
    }
    EXPECT_EQ(one.trims, sharded.trims) << label << " threads=" << threads;
    EXPECT_EQ(one.drops, sharded.drops) << label << " threads=" << threads;
    EXPECT_EQ(one.forward_drops, sharded.forward_drops)
        << label << " threads=" << threads;
    EXPECT_EQ(one.events, sharded.events) << label << " threads=" << threads;
  }
}

TEST(ShardParityTest, K8MixedWorkloadBitIdentical) {
  expect_parity(small_opera(16, 4, 4), false, "opera k=8 16x4");
}

TEST(ShardParityTest, K16MixedWorkloadBitIdentical) {
  expect_parity(small_opera(24, 8, 8), false, "opera k=16 24x8");
}

TEST(ShardParityTest, K8FailureRecoveryBitIdentical) {
  expect_parity(small_opera(16, 4, 4), true, "opera k=8 +failures");
}

TEST(ShardParityTest, K16FailureRecoveryBitIdentical) {
  expect_parity(small_opera(24, 8, 8), true, "opera k=16 +failures");
}

TEST(ShardParityTest, EnvThreadsKnobResolvesIntoShardCount) {
  core::OperaConfig cfg = small_opera(16, 4, 4);
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

struct FabricRun {
  std::vector<Completion> completions;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;  // Network::fingerprint: every port's counters and queues
};

FabricRun run_fabric(const core::FabricConfig& cfg) {
  const auto net = core::NetworkFactory::build(cfg);
  EXPECT_EQ(net->num_shards(), std::min<int>(cfg.threads, net->num_racks()));
  submit_mixed_workload(*net);
  net->run_until(sim::Time::ms(40));
  return {completion_stream(*net), net->events_executed(), exp::state_digest(*net)};
}

TEST_P(ShardParityTest, CompletionStreamAndEventCountBitIdentical) {
  const FabricRun one = run_fabric(config(1));
  ASSERT_FALSE(one.completions.empty());
  for (const int threads : {2, 4}) {
    const FabricRun sharded = run_fabric(config(threads));
    ASSERT_EQ(one.completions.size(), sharded.completions.size())
        << "threads=" << threads;
    for (std::size_t i = 0; i < one.completions.size(); ++i) {
      ASSERT_EQ(one.completions[i], sharded.completions[i])
          << "threads=" << threads << ": completion " << i;
    }
    EXPECT_EQ(one.events, sharded.events) << "threads=" << threads;
    EXPECT_EQ(one.digest, sharded.digest) << "threads=" << threads;
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
