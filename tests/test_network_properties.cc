// Property-style sweeps over the full Opera DES network: across sizes and
// seeds, (1) all submitted low-latency traffic completes, (2) delivered
// payload bytes equal flow bytes exactly (conservation), and (3) the
// forwarding state never strands a packet permanently.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/opera_network.h"
#include "support/support.h"

namespace opera::core {
namespace {

struct NetParam {
  topo::Vertex racks;
  int switches;
  int hosts_per_rack;
  std::uint64_t seed;
};

// gtest's fallback printer dumps the struct's raw bytes, uninitialized
// padding included, which would tie the discovered ctest names to stack
// contents; print the fields instead, and name each case after them.
void PrintTo(const NetParam& p, std::ostream* os) {
  *os << p.racks << " racks x " << p.hosts_per_rack << " hosts, " << p.switches
      << " rotors, seed " << p.seed;
}

std::string net_param_name(const ::testing::TestParamInfo<NetParam>& info) {
  const NetParam& p = info.param;
  return "r" + std::to_string(p.racks) + "_u" + std::to_string(p.switches) + "_h" +
         std::to_string(p.hosts_per_rack) + "_seed" + std::to_string(p.seed);
}

class OperaNetworkSweep : public ::testing::TestWithParam<NetParam> {};

TEST_P(OperaNetworkSweep, LowLatencyCompletesAndConservesBytes) {
  const auto [racks, switches, hosts_per_rack, seed] = GetParam();
  OperaConfig cfg;
  cfg.topology.num_racks = racks;
  cfg.topology.num_switches = switches;
  cfg.topology.hosts_per_rack = hosts_per_rack;
  cfg.topology.seed = seed;
  cfg.seed = seed + 1;
  OperaNetwork net(cfg);

  std::int64_t delivered = 0;
  net.tracker().set_delivery_hook(
      [&](const transport::Flow&, std::int64_t bytes, sim::Time) {
        delivered += bytes;
      });

  const int n_hosts = net.num_hosts();
  sim::Rng rng(seed * 31 + 7);
  std::int64_t submitted = 0;
  const int flows = 150;
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n_hosts)));
    auto dst = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n_hosts)));
    if (dst == src) dst = (dst + 1) % n_hosts;
    const std::int64_t bytes = 1'000 + static_cast<std::int64_t>(rng.index(60'000));
    submitted += bytes;
    net.submit_flow(src, dst, bytes,
                    sim::Time::us(static_cast<std::int64_t>(rng.index(2'000))));
  }
  net.run_until(sim::Time::ms(50));

  EXPECT_EQ(net.tracker().completed(), static_cast<std::size_t>(flows));
  EXPECT_EQ(delivered, submitted);  // exact payload conservation
}

TEST_P(OperaNetworkSweep, BulkCompletesAndConservesBytes) {
  const auto [racks, switches, hosts_per_rack, seed] = GetParam();
  OperaConfig cfg;
  cfg.topology.num_racks = racks;
  cfg.topology.num_switches = switches;
  cfg.topology.hosts_per_rack = hosts_per_rack;
  cfg.topology.seed = seed;
  cfg.seed = seed + 2;
  OperaNetwork net(cfg);

  const int n_hosts = net.num_hosts();
  sim::Rng rng(seed * 131 + 11);
  const int flows = 6;
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n_hosts)));
    auto dst = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n_hosts)));
    if (dst / hosts_per_rack == src / hosts_per_rack) {
      dst = (dst + hosts_per_rack) % n_hosts;  // force inter-rack (bulk path)
    }
    net.submit_flow(src, dst, 16'000'000, sim::Time::zero(),
                    net::TrafficClass::kBulk);
  }
  net.run_until(sim::Time::ms(250));
  EXPECT_EQ(net.tracker().completed(), static_cast<std::size_t>(flows));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OperaNetworkSweep,
    ::testing::Values(NetParam{8, 4, 2, 1}, NetParam{16, 4, 4, 2},
                      NetParam{20, 5, 3, 3}, NetParam{24, 6, 4, 4},
                      NetParam{16, 4, 4, 99}),
    net_param_name);

// Determinism: two identically-seeded networks produce identical FCTs.
TEST(OperaNetworkProperties, DeterministicGivenSeeds) {
  auto run = [] {
    OperaNetwork net(support::opera_testbed({.topology_seed = 7, .network_seed = 8}));
    sim::Rng rng(5);
    for (int i = 0; i < 60; ++i) {
      const auto src = static_cast<std::int32_t>(rng.index(64));
      auto dst = static_cast<std::int32_t>(rng.index(64));
      if (dst == src) dst = (dst + 1) % 64;
      net.submit_flow(src, dst, 5'000 + static_cast<std::int64_t>(rng.index(20'000)),
                      sim::Time::us(static_cast<std::int64_t>(rng.index(500))));
    }
    net.run_until(sim::Time::ms(20));
    return support::snapshot(net);
  };
  support::expect_same_run(run(), run(), "same seeds");
}

// Hop bound: no delivered low-latency packet ever exceeds the worst slice
// diameter plus the destination ToR hop (loop freedom in practice).
TEST(OperaNetworkProperties, PathLengthsBounded) {
  OperaNetwork net(support::opera_testbed());
  int worst_slice_diameter = 0;
  for (int s = 0; s < net.topology().num_slices(); ++s) {
    const auto stats = topo::all_pairs_path_stats(net.topology().slice_graph(s));
    worst_slice_diameter = std::max(worst_slice_diameter, static_cast<int>(stats.worst));
  }
  // submit_flow doesn't expose per-packet hops; use a direct sink check via
  // the tracker delivery hook with packet inspection at the host layer:
  // hops are validated indirectly — a loop would show up as FCTs beyond the
  // RTO fallback. Assert the FCT ceiling instead.
  sim::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(64));
    auto dst = static_cast<std::int32_t>(rng.index(64));
    if (dst == src) dst = (dst + 1) % 64;
    net.submit_flow(src, dst, 1'400,
                    sim::Time::us(static_cast<std::int64_t>(rng.index(1'000))));
  }
  net.run_until(sim::Time::ms(20));
  EXPECT_EQ(net.tracker().completed(), 100u);
  const auto fct = net.tracker().fct_us(0, 1'000'000);
  // Single-packet flows: even the p100 should be far below one RTO unless
  // packets looped or were stranded.
  EXPECT_LT(fct.max(), 900.0);
}

}  // namespace
}  // namespace opera::core
