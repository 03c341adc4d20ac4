// Parity and interface tests for core::Network / core::FabricConfig /
// core::NetworkFactory: every fabric built through the factory must be
// bit-identical (same FCTs on a fixed seed/workload) to one constructed
// directly from its per-fabric config.
#include "core/fabric.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workload/synthetic.h"

namespace opera::core {
namespace {

struct TestFlow {
  std::int32_t src;
  std::int32_t dst;
  std::int64_t bytes;
  sim::Time start;
};

std::vector<TestFlow> fixed_workload(std::int32_t num_hosts, int count,
                                     std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<TestFlow> flows;
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(num_hosts));
    auto dst = static_cast<std::int32_t>(rng.index(num_hosts));
    if (dst == src) dst = (dst + 1) % num_hosts;
    flows.push_back({src, dst,
                     5'000 + static_cast<std::int64_t>(rng.index(60'000)),
                     sim::Time::us(static_cast<std::int64_t>(rng.index(2'000)))});
  }
  return flows;
}

// Runs the same fixed workload on both networks and asserts identical
// completion records (ids, sizes, and exact FCTs).
void expect_identical_fcts(Network& a, Network& b) {
  ASSERT_EQ(a.num_hosts(), b.num_hosts());
  const auto flows = fixed_workload(a.num_hosts(), 40, 99);
  for (const auto& f : flows) {
    a.submit_flow(f.src, f.dst, f.bytes, f.start);
    b.submit_flow(f.src, f.dst, f.bytes, f.start);
  }
  a.run_until(sim::Time::ms(30));
  b.run_until(sim::Time::ms(30));
  ASSERT_GT(a.tracker().completed(), 0u);
  ASSERT_EQ(a.tracker().completed(), b.tracker().completed());
  const auto& ca = a.tracker().completions();
  const auto& cb = b.tracker().completions();
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].flow.id, cb[i].flow.id);
    EXPECT_EQ(ca[i].flow.size_bytes, cb[i].flow.size_bytes);
    EXPECT_EQ(ca[i].fct().to_us(), cb[i].fct().to_us());
  }
}

FabricConfig small_fabric(FabricKind kind) {
  auto cfg = FabricConfig::make(kind);
  cfg.opera.num_racks = 8;
  cfg.opera.num_switches = 4;
  cfg.opera.hosts_per_rack = 2;
  cfg.opera.seed = 7;
  cfg.clos.radix = 8;
  cfg.clos.oversubscription = 3;
  cfg.clos.num_pods = 2;
  cfg.expander.num_tors = 10;
  cfg.expander.uplinks = 4;
  cfg.expander.hosts_per_tor = 3;
  cfg.expander.seed = 7;
  cfg.rotornet.num_racks = 8;
  cfg.rotornet.num_switches = 4;
  cfg.rotornet.seed = 7;
  cfg.rotornet_hosts_per_rack = 2;
  return cfg;
}

TEST(NetworkFactory, OperaParity) {
  const auto cfg = small_fabric(FabricKind::kOpera);
  OperaNetwork direct(cfg.opera_config());
  const auto built = NetworkFactory::build(cfg);
  expect_identical_fcts(direct, *built);
}

TEST(NetworkFactory, ClosParity) {
  const auto cfg = small_fabric(FabricKind::kFoldedClos);
  ClosNetwork direct(cfg.clos_config());
  const auto built = NetworkFactory::build(cfg);
  expect_identical_fcts(direct, *built);
}

TEST(NetworkFactory, ExpanderParity) {
  const auto cfg = small_fabric(FabricKind::kExpander);
  ExpanderNetwork direct(cfg.expander_config());
  const auto built = NetworkFactory::build(cfg);
  expect_identical_fcts(direct, *built);
}

TEST(NetworkFactory, RotorNetParity) {
  const auto cfg = small_fabric(FabricKind::kRotorNet);
  OperaNetwork direct(cfg.rotornet_config());
  const auto built = NetworkFactory::build(cfg);
  expect_identical_fcts(direct, *built);
}

TEST(NetworkFactory, BuildsEveryKindWithMatchingCounts) {
  for (const auto kind : {FabricKind::kOpera, FabricKind::kFoldedClos,
                          FabricKind::kExpander, FabricKind::kRotorNet}) {
    const auto cfg = small_fabric(kind);
    const auto net = NetworkFactory::build(cfg);
    ASSERT_NE(net, nullptr);
    EXPECT_EQ(net->num_hosts(), cfg.num_hosts()) << fabric_kind_name(kind);
    EXPECT_EQ(net->num_racks(), cfg.num_racks()) << fabric_kind_name(kind);
    EXPECT_FALSE(net->describe().empty());
    EXPECT_EQ(net->rack_of_host(net->num_hosts() - 1), net->num_racks() - 1);
  }
}

TEST(NetworkFactory, KindNamesRoundTrip) {
  for (const auto kind : {FabricKind::kOpera, FabricKind::kFoldedClos,
                          FabricKind::kExpander, FabricKind::kRotorNet}) {
    const auto parsed = parse_fabric_kind(fabric_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_fabric_kind("torus").has_value());
}

TEST(FabricConfig, ScaleCoversRequestedHosts) {
  for (const auto kind : {FabricKind::kOpera, FabricKind::kFoldedClos,
                          FabricKind::kExpander, FabricKind::kRotorNet}) {
    auto cfg = FabricConfig::make(kind);
    cfg.scale(16, 4);
    EXPECT_GE(cfg.num_hosts(), 16 * 4 * 9 / 10) << fabric_kind_name(kind);
    // The scaled config must actually build.
    const auto net = NetworkFactory::build(cfg);
    EXPECT_EQ(net->num_hosts(), cfg.num_hosts());
  }
}

TEST(RemapHostPair, WrapsAndAvoidsSelfLoops) {
  // In-range distinct pair: identity.
  EXPECT_EQ(remap_host_pair(3, 7, 10), (std::pair<std::int32_t, std::int32_t>{3, 7}));
  // Out-of-range ids wrap modulo num_hosts.
  EXPECT_EQ(remap_host_pair(13, 27, 10),
            (std::pair<std::int32_t, std::int32_t>{3, 7}));
  // Collision after wrapping bumps the destination.
  EXPECT_EQ(remap_host_pair(3, 13, 10), (std::pair<std::int32_t, std::int32_t>{3, 4}));
  // Bump wraps at the top of the range.
  EXPECT_EQ(remap_host_pair(9, 19, 10), (std::pair<std::int32_t, std::int32_t>{9, 0}));
}

TEST(Network, SubmitRemappedKeepsPairsDistinct) {
  const auto cfg = small_fabric(FabricKind::kFoldedClos);
  const auto net = NetworkFactory::build(cfg);
  // Workload generated for a larger host count than this fabric has.
  const auto flows = fixed_workload(3 * net->num_hosts(), 30, 5);
  for (const auto& f : flows) {
    net->submit_remapped(f.src, f.dst, f.bytes, f.start);
  }
  net->run_until(sim::Time::ms(30));
  EXPECT_EQ(net->tracker().completed(), 30u);
  for (const auto& rec : net->tracker().completions()) {
    EXPECT_NE(rec.flow.src_host, rec.flow.dst_host);
    EXPECT_LT(rec.flow.src_host, net->num_hosts());
    EXPECT_LT(rec.flow.dst_host, net->num_hosts());
  }
}

TEST(Network, RunToCompletionStopsEarlyWithIdenticalFcts) {
  const auto cfg = small_fabric(FabricKind::kOpera);
  const auto horizon = sim::Time::ms(200);

  const auto early = NetworkFactory::build(cfg);
  const auto late = NetworkFactory::build(cfg);
  const auto flows = fixed_workload(early->num_hosts(), 20, 11);
  for (const auto& f : flows) {
    early->submit_flow(f.src, f.dst, f.bytes, f.start);
    late->submit_flow(f.src, f.dst, f.bytes, f.start);
  }
  const auto status = early->run_to_completion(horizon);
  late->run_until(horizon);

  ASSERT_EQ(late->tracker().completed(), flows.size());
  EXPECT_TRUE(status.stopped_early);
  EXPECT_LT(status.ended_at, horizon);
  ASSERT_EQ(early->tracker().completed(), late->tracker().completed());
  const auto& ce = early->tracker().completions();
  const auto& cl = late->tracker().completions();
  for (std::size_t i = 0; i < ce.size(); ++i) {
    EXPECT_EQ(ce[i].fct().to_us(), cl[i].fct().to_us());
  }
}

TEST(Network, RunWithProgressHookObservesAndStops) {
  const auto cfg = small_fabric(FabricKind::kOpera);
  const auto net = NetworkFactory::build(cfg);
  net->submit_flow(0, 9, 1'000'000'000, sim::Time::zero());  // never finishes
  int calls = 0;
  const auto status = net->run_with_progress(
      sim::Time::ms(100), sim::Time::ms(1), [&calls](Network&) {
        return ++calls >= 5;  // stop on the fifth poll
      });
  EXPECT_EQ(calls, 5);
  EXPECT_TRUE(status.stopped_early);
  EXPECT_LT(status.ended_at, sim::Time::ms(100));
  // A later plain run resumes cleanly past the cancelled poll event.
  net->run_until(sim::Time::ms(6));
  EXPECT_EQ(net->sim().now(), sim::Time::ms(6));
}

}  // namespace
}  // namespace opera::core
