// fluid::FluidNetwork / fluid::RotorRateLb property tests.
//
// The fluid engine has no packets to conserve, so its invariants are the
// rate allocator's capacity accounting and the integrator's byte
// bookkeeping: per-slice deliver rates never exceed any rack's circuit
// budget or a host NIC, every flow delivers exactly its size, VLB bytes
// are taxed 2x in circuit-traversal accounting, and the whole thing is
// bit-identical across --threads values, replays, and checkpoint round
// trips. The *accuracy* of the model (fluid vs packet FCT error) is
// pinned separately in test_fluid_parity.cc.
#include "fluid/fluid_network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/fabric.h"
#include "exp/run_guard.h"
#include "fluid/rotor_rate_lb.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "workload/synthetic.h"

namespace opera {
namespace {

core::FabricConfig small_fluid_config() {
  auto config = core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 4);
  config.engine = core::EngineKind::kFluid;
  return config;
}

// ---------------------------------------------------------------------------
// RotorRateLb conservation properties
// ---------------------------------------------------------------------------

// Random demand sets, every slice, with and without failures: no rack's
// egress or ingress circuit budget is exceeded, no flow exceeds one host
// NIC, and VLB grants stay inside the relay pool.
TEST(RotorRateLb, ConservationUnderRandomDemand) {
  const auto config = small_fluid_config().opera_config();
  const topo::OperaTopology topo(config.topology);
  const fluid::RotorRateLb lb(topo, fluid::RotorRateLb::Params{config.link.rate_bps, 0.9,
                                                 config.topology.hosts_per_rack,
                                                 true});
  const int n = static_cast<int>(config.topology.num_racks);
  sim::Rng rng(7);

  auto failures =
      topo::FailureSet::none(config.topology.num_racks, config.topology.num_switches);

  for (int trial = 0; trial < 20; ++trial) {
    // Random sparse demand, sorted by (src, dst) as the contract requires.
    std::map<std::pair<std::int32_t, std::int32_t>, std::int64_t> demand;
    const int pairs = 1 + static_cast<int>(rng.index(40));
    for (int p = 0; p < pairs; ++p) {
      const auto a = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n)));
      const auto b = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n)));
      demand[{a, b}] += rng.uniform_int(1, 12);
    }
    std::vector<fluid::GroupDemand> groups;
    groups.reserve(demand.size());
    for (const auto& [key, flows] : demand) {
      groups.push_back(fluid::GroupDemand{key.first, key.second, flows});
    }
    // Trial 10+: degrade the fabric and re-check the same invariants.
    if (trial == 10) {
      failures.switch_failed[1] = true;
      failures.uplink_failed[3][0] = true;
      failures.uplink_failed[5][2] = true;
    }

    for (int slice = 0; slice < topo.num_slices(); ++slice) {
      fluid::RateUsage usage;
      const auto rates = lb.allocate(slice, groups, failures, &usage);
      ASSERT_EQ(rates.size(), groups.size());

      constexpr double kSlack = 1.0 + 1e-9;
      for (int r = 0; r < n; ++r) {
        const auto sr = static_cast<std::size_t>(r);
        EXPECT_LE(usage.used_up[sr], usage.budget[sr] * kSlack + 1.0)
            << "rack " << r << " egress over budget, slice " << slice;
        EXPECT_LE(usage.used_down[sr], usage.budget[sr] * kSlack + 1.0)
            << "rack " << r << " ingress over budget, slice " << slice;
      }
      EXPECT_LE(usage.relay_used, usage.relay_pool * kSlack + 1.0);

      for (std::size_t i = 0; i < groups.size(); ++i) {
        EXPECT_GE(rates[i].per_flow, 0.0);
        EXPECT_LE(rates[i].per_flow, config.link.rate_bps * kSlack)
            << "flow rate above one host NIC";
        if (groups[i].src_rack == groups[i].dst_rack) {
          EXPECT_EQ(rates[i].direct_share, 0.0);
          EXPECT_EQ(rates[i].vlb_share, 0.0);
        } else {
          EXPECT_NEAR(rates[i].per_flow,
                      rates[i].direct_share + rates[i].vlb_share, 1e-3);
        }
      }
    }
  }
}

TEST(RotorRateLb, FailedUplinkCarriesNothing) {
  const auto config = small_fluid_config().opera_config();
  const topo::OperaTopology topo(config.topology);
  const fluid::RotorRateLb lb(topo, fluid::RotorRateLb::Params{config.link.rate_bps, 0.9,
                                                 config.topology.hosts_per_rack,
                                                 true});
  auto none =
      topo::FailureSet::none(config.topology.num_racks, config.topology.num_switches);
  auto all_up_0 = none;
  for (int sw = 0; sw < config.topology.num_switches; ++sw) {
    all_up_0.uplink_failed[0][static_cast<std::size_t>(sw)] = true;
  }
  const std::vector<fluid::GroupDemand> groups{{0, 1, 4}};
  for (int slice = 0; slice < topo.num_slices(); ++slice) {
    fluid::RateUsage usage;
    const auto rates = lb.allocate(slice, groups, all_up_0, &usage);
    // Rack 0 has no live uplinks: zero budget, zero rate (direct or VLB).
    EXPECT_EQ(usage.budget[0], 0.0) << "slice " << slice;
    EXPECT_EQ(rates[0].per_flow, 0.0) << "slice " << slice;
  }
}

// ---------------------------------------------------------------------------
// FluidNetwork integrator properties
// ---------------------------------------------------------------------------

TEST(FluidNetwork, SingleBulkFlowCompletes) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  const std::int64_t size = 8'000'000;
  net.submit_flow(0, 20, size, sim::Time::us(10), net::TrafficClass::kBulk);
  const auto status = net.run_to_completion(sim::Time::ms(100));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_TRUE(status.stopped_early);
  const auto& rec = net.tracker().completions()[0];
  // One flow is NIC-bound at a single host link: FCT >= size * 8 / rate.
  const auto line_rate_fct =
      sim::Time::from_seconds(static_cast<double>(size) * 8.0 / config.link.rate_bps);
  EXPECT_GE(rec.fct(), line_rate_fct);
  EXPECT_LT(rec.fct(), sim::Time::ms(100));
  EXPECT_EQ(net.active_groups(), 0u);
}

// Every flow delivers exactly its size — checked through the tracker's
// delivery hook, the same surface the throughput time series uses.
TEST(FluidNetwork, ByteConservationPerFlow) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  std::map<std::uint64_t, std::int64_t> delivered;
  net.tracker().set_delivery_hook(
      [&delivered](const transport::Flow& flow, std::int64_t bytes, sim::Time) {
        delivered[flow.id] += bytes;
      });

  sim::Rng rng(3);
  const auto flows = workload::poisson_workload(
      workload::FlowSizeDistribution::websearch(), net.num_hosts(),
      /*load=*/0.2, config.link.rate_bps, sim::Time::ms(4), rng);
  ASSERT_GT(flows.size(), 20u);
  std::map<std::uint64_t, std::int64_t> expected;
  for (const auto& f : flows) {
    expected[net.submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start)] =
        f.size_bytes;
  }
  net.run_to_completion(sim::Time::ms(400));
  ASSERT_EQ(net.tracker().completed(), flows.size());
  for (const auto& [id, size] : expected) {
    EXPECT_EQ(delivered[id], size) << "flow " << id;
  }
}

// Skewed demand forces VLB; the stats expose the 2x circuit-byte tax.
TEST(FluidNetwork, VlbTwoHopByteAccounting) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  // Hot rack pair: every rack-0 host sends 3 bulk flows to rack 1.
  // Direct 0<->1 circuits exist in only a few slices of the cycle, so
  // most bytes must ride two-hop VLB paths.
  std::int64_t total_bytes = 0;
  for (int h = 0; h < 4; ++h) {
    for (int i = 0; i < 3; ++i) {
      const std::int64_t size = 4'000'000;
      net.submit_flow(h, 4 + h, size, sim::Time::us(i), net::TrafficClass::kBulk);
      total_bytes += size;
    }
  }
  net.run_to_completion(sim::Time::ms(200));
  ASSERT_EQ(net.tracker().completed(), 12u);

  const auto& stats = net.fluid_stats();
  EXPECT_GT(stats.vlb_bytes, 0.0);
  EXPECT_GT(stats.direct_bytes, 0.0);
  EXPECT_EQ(stats.intra_bytes, 0.0);
  // Delivered bytes partition into direct + VLB...
  EXPECT_NEAR(stats.direct_bytes + stats.vlb_bytes,
              static_cast<double>(total_bytes), total_bytes * 1e-6);
  // ...while circuit traversals tax VLB twice (relay in + relay out).
  EXPECT_NEAR(stats.circuit_bytes(),
              static_cast<double>(total_bytes) + stats.vlb_bytes,
              total_bytes * 1e-6);
  EXPECT_GT(stats.circuit_bytes(), static_cast<double>(total_bytes));
}

TEST(FluidNetwork, IntraRackStaysOffCircuits) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  net.submit_flow(0, 1, 1'000'000, sim::Time::us(1), net::TrafficClass::kBulk);
  net.run_to_completion(sim::Time::ms(50));
  ASSERT_EQ(net.tracker().completed(), 1u);
  const auto& stats = net.fluid_stats();
  EXPECT_NEAR(stats.intra_bytes, 1e6, 1.0);
  EXPECT_EQ(stats.direct_bytes, 0.0);
  EXPECT_EQ(stats.vlb_bytes, 0.0);
}

// ---------------------------------------------------------------------------
// Determinism: threads knob, replay, checkpoint round trip
// ---------------------------------------------------------------------------

std::vector<workload::FlowSpec> determinism_workload(std::int32_t num_hosts) {
  sim::Rng rng(11);
  return workload::poisson_workload(workload::FlowSizeDistribution::websearch(),
                                    num_hosts, /*load=*/0.3, 10e9,
                                    sim::Time::ms(3), rng);
}

std::unique_ptr<core::Network> run_fluid(int threads, sim::Time until) {
  fluid::register_fluid_engines();
  auto config = small_fluid_config();
  config.threads = threads;
  auto net = core::NetworkFactory::build(config);
  for (const auto& f : determinism_workload(net->num_hosts())) {
    net->submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  net->run_until(until);
  return net;
}

TEST(FluidNetwork, BitIdenticalAcrossThreadCounts) {
  // The integrator never shards (the threads knob is accepted and
  // ignored), so --threads={1,2,4} must be trivially bit-identical —
  // digest, completion stream, and event count.
  const auto ref = run_fluid(1, sim::Time::ms(40));
  const auto ref_digest = exp::state_digest(*ref);
  EXPECT_GT(ref->tracker().completed(), 0u);
  for (const int threads : {2, 4}) {
    const auto net = run_fluid(threads, sim::Time::ms(40));
    EXPECT_EQ(exp::state_digest(*net), ref_digest) << "threads=" << threads;
    EXPECT_EQ(net->events_executed(), ref->events_executed());
    ASSERT_EQ(net->tracker().completed(), ref->tracker().completed());
    for (std::size_t i = 0; i < ref->tracker().completions().size(); ++i) {
      const auto& a = ref->tracker().completions()[i];
      const auto& b = net->tracker().completions()[i];
      EXPECT_EQ(a.flow.id, b.flow.id);
      EXPECT_EQ(a.end, b.end);
    }
  }
}

TEST(FluidNetwork, CheckpointRoundTripWithFluidEngine) {
  fluid::register_fluid_engines();
  exp::RunRecipe recipe;
  recipe.run_label = "fluid-poisson";
  recipe.fabric_label = "opera";
  recipe.load_pct = 30.0;
  recipe.config = small_fluid_config();
  recipe.flows = determinism_workload(recipe.config.num_hosts());
  recipe.horizon = sim::Time::ms(40);

  // Run to a mid-run snapshot time, checkpoint, and parse it back.
  auto net = core::NetworkFactory::build(recipe.config);
  for (const auto& f : recipe.flows) {
    net->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  net->run_until(sim::Time::ms(5));
  const auto data = exp::make_run_checkpoint(recipe, *net);
  const auto parsed =
      sim::parse_checkpoint(sim::write_checkpoint_text(data), "fluid.ckpt");
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  exp::RunRecipe restored;
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  ASSERT_EQ(exp::recipe_from_checkpoint(parsed.data, &restored, &resume_time,
                                        &resume_digest),
            "");
  // The engine knob must survive the [config] section round trip — a
  // resume that silently fell back to the packet engine would replay a
  // completely different simulation.
  EXPECT_EQ(restored.config.engine, core::EngineKind::kFluid);
  EXPECT_EQ(resume_time, sim::Time::ms(5));

  // Replay from scratch on a fresh fabric: at the snapshot time the
  // multi-layer fingerprint (which folds the full fluid rate state —
  // drain counters, frozen rates, pending thresholds) must match.
  auto replayed = exp::rebuild_run(restored);
  replayed->run_until(resume_time);
  EXPECT_EQ(exp::state_digest(*replayed), resume_digest);

  // And continuing past the snapshot matches an uninterrupted run.
  replayed->run_until(sim::Time::ms(40));
  net->run_until(sim::Time::ms(40));
  EXPECT_EQ(exp::state_digest(*replayed), exp::state_digest(*net));
}

}  // namespace
}  // namespace opera
