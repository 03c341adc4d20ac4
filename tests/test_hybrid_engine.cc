// fluid::HybridNetwork classification goldens and merge regressions.
//
// The hybrid engine's two contracts: (1) the classifier's packet-vs-fluid
// assignment for a given workload is exact and pinned — a silent
// classifier change would quietly shift work between engines and change
// results while every other test stays green; (2) the master completion
// stream is merged (time, flow id)-canonically across both engines with
// no duplicates and no drops, so FCT buckets and Report tables cannot
// tell a hybrid run from a single-engine one.
#include "fluid/hybrid_network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "exp/run_guard.h"
#include "exp/scenario.h"
#include "fluid/fluid_network.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "workload/synthetic.h"

namespace opera {
namespace {

// Small hybrid testbed. The 1 MB threshold (vs the paper's 15 MB) makes
// the goldens exercise both sides of the classifier at test-scale flow
// sizes: incast responses (64 KB) go packet, storage objects (4 MB) go
// fluid, ditl mixes.
core::FabricConfig hybrid_config() {
  auto config = core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 4);
  config.engine = core::EngineKind::kHybrid;
  config.bulk_threshold_bytes = 1'000'000;
  return config;
}

// Compact golden form: one char per flow in submission order.
std::string assignment_string(const fluid::HybridNetwork& net) {
  std::string s;
  s.reserve(net.assignments().size());
  for (const auto engine : net.assignments()) {
    s.push_back(engine == fluid::HybridNetwork::Engine::kFluid ? 'F' : 'P');
  }
  return s;
}

std::vector<workload::FlowSpec> ditl_flows(const core::FabricConfig& config) {
  exp::ScenarioSpec spec;
  spec.kind = exp::ScenarioKind::kDitl;
  spec.phase_ms = 1.0;
  spec.load = 0.2;
  std::string error;
  auto flows = exp::scenario_flows(spec, config, &error);
  EXPECT_EQ(error, "");
  return flows;
}

TEST(HybridClassification, DitlGolden) {
  const auto config = hybrid_config();
  fluid::HybridNetwork net(config);
  const auto flows = ditl_flows(config);
  ASSERT_GT(flows.size(), 50u);
  std::size_t fluid_count = 0;
  for (const auto& f : flows) {
    net.submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
    if (f.size_bytes >= config.bulk_threshold_bytes) ++fluid_count;
  }
  const auto s = assignment_string(net);
  ASSERT_EQ(s.size(), flows.size());
  // Exact per-flow agreement with the size rule...
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(s[i] == 'F', flows[i].size_bytes >= config.bulk_threshold_bytes)
        << "flow " << i;
  }
  // ...and the pinned golden shape: the mix must contain both engines,
  // with the split exactly the size rule's count.
  EXPECT_EQ(static_cast<std::size_t>(std::count(s.begin(), s.end(), 'F')),
            fluid_count);
  EXPECT_GT(fluid_count, 0u);
  EXPECT_LT(fluid_count, flows.size());
}

TEST(HybridClassification, IncastAllPacket) {
  const auto config = hybrid_config();
  fluid::HybridNetwork net(config);
  sim::Rng rng(5);
  workload::IncastParams params;  // 64 KB responses << 1 MB threshold
  const auto flows = workload::incast_workload(
      net.num_hosts(), config.opera.hosts_per_rack, params, rng);
  ASSERT_GT(flows.size(), 0u);
  for (const auto& f : flows) {
    net.submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  EXPECT_EQ(assignment_string(net), std::string(flows.size(), 'P'));
}

TEST(HybridClassification, StorageAllFluid) {
  const auto config = hybrid_config();
  fluid::HybridNetwork net(config);
  sim::Rng rng(5);
  workload::StorageReplicationParams params;  // 4 MB objects > 1 MB threshold
  const auto flows = workload::storage_replication_workload(
      net.num_hosts(), config.opera.hosts_per_rack, params, rng);
  ASSERT_GT(flows.size(), 0u);
  for (const auto& f : flows) {
    net.submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  EXPECT_EQ(assignment_string(net), std::string(flows.size(), 'F'));
}

TEST(HybridClassification, ForcedTagOverridesSize) {
  const auto config = hybrid_config();
  fluid::HybridNetwork net(config);
  // A tiny flow tagged bulk goes fluid; a huge flow tagged low-latency
  // goes packet (the paper's application-based tagging, §3.4).
  net.submit_flow(0, 5, 10'000, sim::Time::us(1), net::TrafficClass::kBulk);
  net.submit_flow(0, 6, 50'000'000, sim::Time::us(1),
                  net::TrafficClass::kLowLatency);
  EXPECT_EQ(assignment_string(net), "FP");
}

// ---------------------------------------------------------------------------
// Canonical merge
// ---------------------------------------------------------------------------

TEST(HybridMerge, CompletionsCanonicalNoDupesNoDrops) {
  const auto config = hybrid_config();
  fluid::HybridNetwork net(config);
  const auto flows = ditl_flows(config);
  for (const auto& f : flows) {
    net.submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  const auto status = net.run_to_completion(sim::Time::ms(200));
  EXPECT_TRUE(status.stopped_early);
  const auto& completions = net.tracker().completions();
  ASSERT_EQ(completions.size(), flows.size()) << "dropped completions";

  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < completions.size(); ++i) {
    const auto& rec = completions[i];
    EXPECT_TRUE(seen.insert(rec.flow.id).second)
        << "duplicate completion for flow " << rec.flow.id;
    if (i > 0) {
      const auto& prev = completions[i - 1];
      EXPECT_TRUE(prev.end < rec.end ||
                  (prev.end == rec.end && prev.flow.id < rec.flow.id))
          << "completion stream not (time, flow id)-sorted at index " << i;
    }
  }
  // Both engines actually completed flows in this run.
  std::size_t fluid_done = 0;
  for (const auto& rec : completions) {
    if (net.assignments()[rec.flow.id - 1] ==
        fluid::HybridNetwork::Engine::kFluid) {
      ++fluid_done;
    }
  }
  EXPECT_GT(fluid_done, 0u);
  EXPECT_LT(fluid_done, completions.size());
}

// The factory path (engine=hybrid) and repeated runs are bit-identical.
TEST(HybridMerge, DeterministicAcrossRuns) {
  fluid::register_fluid_engines();
  const auto run_digest = [] {
    const auto config = hybrid_config();
    auto net = core::NetworkFactory::build(config);
    const auto flows = ditl_flows(config);
    for (const auto& f : flows) {
      net->submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
    }
    net->run_to_completion(sim::Time::ms(200));
    return exp::state_digest(*net);
  };
  EXPECT_EQ(run_digest(), run_digest());
}

}  // namespace
}  // namespace opera
