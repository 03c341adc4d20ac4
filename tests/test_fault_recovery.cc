// Runtime fault injection and reconvergence in the Opera DES network
// (paper §3.6.2: hello protocol + route recomputation).
#include "core/opera_network.h"

#include <gtest/gtest.h>

#include "support/support.h"

namespace opera::core {
namespace {

constexpr support::Testbed kU6{
    .racks = 24, .u = 6, .topology_seed = 4, .network_seed = 5};

TEST(FaultRecovery, TrafficSurvivesSwitchFailure) {
  OperaNetwork net(support::opera_testbed(kU6));
  // Continuous stream of small flows across the failure event.
  sim::Rng rng(1);
  const int flows = 600;
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(96));
    auto dst = static_cast<std::int32_t>(rng.index(96));
    if (dst == src) dst = (dst + 1) % 96;
    net.submit_flow(src, dst, 8'000, sim::Time::us(25 * i));
  }
  net.sim().schedule_at(sim::Time::ms(4), [&net] { net.inject_switch_failure(1); });
  net.run_until(sim::Time::ms(60));
  EXPECT_EQ(net.tracker().completed(), static_cast<std::size_t>(flows));
}

TEST(FaultRecovery, TrafficSurvivesUplinkFailures) {
  OperaNetwork net(support::opera_testbed(kU6));
  sim::Rng rng(2);
  const int flows = 400;
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(96));
    auto dst = static_cast<std::int32_t>(rng.index(96));
    if (dst == src) dst = (dst + 1) % 96;
    net.submit_flow(src, dst, 8'000, sim::Time::us(30 * i));
  }
  net.sim().schedule_at(sim::Time::ms(3), [&net] {
    net.inject_uplink_failure(0, 2);
    net.inject_uplink_failure(5, 3);
    net.inject_uplink_failure(9, 0);
  });
  net.run_until(sim::Time::ms(60));
  EXPECT_EQ(net.tracker().completed(), static_cast<std::size_t>(flows));
}

TEST(FaultRecovery, BulkReroutesAroundFailedSwitch) {
  OperaNetwork net(support::opera_testbed(kU6));
  net.submit_flow(0, 95, 20'000'000, sim::Time::zero());  // bulk
  net.sim().schedule_at(sim::Time::ms(2), [&net] { net.inject_switch_failure(3); });
  net.run_until(sim::Time::ms(120));
  ASSERT_EQ(net.tracker().completed(), 1u);
  // With one of six switches dead, direct slices to the destination are
  // rarer, but VLB over the surviving circuits keeps the flow moving.
  EXPECT_LT(net.tracker().completions()[0].fct().to_ms(), 120.0);
}

TEST(FaultRecovery, FailureStateIsRecorded) {
  OperaNetwork net(support::opera_testbed(kU6));
  net.inject_switch_failure(2);
  net.inject_uplink_failure(7, 4);
  EXPECT_TRUE(net.failures().switch_failed[2]);
  EXPECT_TRUE(net.failures().uplink_failed[7][4]);
  EXPECT_FALSE(net.failures().switch_failed[0]);
}

TEST(FaultRecovery, PostReconvergenceTailIsClean) {
  // Flows submitted well after reconvergence shouldn't see elevated tails.
  OperaNetwork net(support::opera_testbed(kU6));
  net.inject_switch_failure(5);
  net.run_until(sim::Time::ms(10));  // > 1 cycle: tables recomputed
  sim::Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(96));
    auto dst = static_cast<std::int32_t>(rng.index(96));
    if (dst == src) dst = (dst + 1) % 96;
    net.submit_flow(src, dst, 8'000, sim::Time::ms(10) + sim::Time::us(30 * i));
  }
  net.run_until(sim::Time::ms(40));
  EXPECT_EQ(net.tracker().completed(), 300u);
  const auto fct = net.tracker().fct_us(0, 1'000'000);
  EXPECT_LT(fct.percentile(99), 500.0);
}

OperaConfig config_16x4(topo::RotorSchedule schedule) {
  OperaConfig cfg = support::opera_testbed({.topology_seed = 7});
  cfg.schedule = schedule;
  if (schedule == topo::RotorSchedule::kUnison) {
    cfg.low_latency = LowLatencyPlane::kDirectCircuit;
  }
  return cfg;
}

// After every settle, a settled switch's uplink on each ToR is enabled
// exactly when topo's circuit rule calls its circuit live — including the
// far end of a failed uplink, which must stay dark.
TEST(FaultRecovery, SettleEnablesExactlyTheLiveCircuits) {
  for (const auto schedule : {topo::RotorSchedule::kOffset, topo::RotorSchedule::kUnison}) {
    const OperaConfig cfg = config_16x4(schedule);
    OperaNetwork net(cfg);
    net.inject_uplink_failure(2, 1);
    const auto& topo = net.topology();
    const int slices = 2 * topo.num_slices();
    int checks = 0;
    for (int s = 0; s < slices; ++s) {
      const sim::Time after_settle =
          cfg.slice.duration * s + cfg.slice.reconfiguration + sim::Time::ns(1);
      net.sim().schedule_at(after_settle, [&net, &topo, &checks, &cfg, s] {
        const int slice = s % topo.num_slices();
        const auto [first, last] = topo.retargeting_switches(slice);
        const int target = topo.settle_slice(slice);
        for (topo::Vertex r = 0; r < topo.num_racks(); ++r) {
          for (int sw = first; sw < last; ++sw) {
            const bool live = topo.live_peer(sw, r, target, &net.failures()) >= 0;
            EXPECT_EQ(net.tor(r).port(cfg.topology.hosts_per_rack + sw).enabled(), live)
                << "slice " << slice << " rack " << r << " switch " << sw;
            ++checks;
          }
        }
      });
    }
    net.run_until(cfg.slice.duration * slices);
    const int per_settle = schedule == topo::RotorSchedule::kOffset ? 1 : 4;
    EXPECT_EQ(checks, slices * 16 * per_settle);
  }
}

// A switch that recovers inside its own reconfiguration slice, after its
// settle already ran, is wired onto the matching it settled into: in the
// next slice every one of its live circuits has its uplink enabled, as
// OperaTopology::live_uplink already assumes.
TEST(FaultRecovery, RecoveryAfterOwnSettleRewiresTheSwitch) {
  const OperaConfig cfg = config_16x4(topo::RotorSchedule::kOffset);
  for (int s = 0; s < cfg.topology.num_switches; ++s) {
    OperaNetwork net(cfg);
    const auto& topo = net.topology();
    net.inject_switch_failure(s);
    const sim::Time recover = cfg.slice.duration * (s + 4) + sim::Time::us(20);
    ASSERT_EQ(topo.reconfiguring_switch((s + 4) % topo.num_slices()), s);
    net.sim().schedule_at(recover, [&net, s] { net.recover_switch(s); });
    int live = 0;
    const sim::Time check = cfg.slice.duration * (s + 5) + cfg.slice.duration / 2;
    net.sim().schedule_at(check, [&net, &topo, &live, &cfg, s] {
      const int slice = (s + 5) % topo.num_slices();
      for (topo::Vertex r = 0; r < topo.num_racks(); ++r) {
        const bool up = topo.live_peer(s, r, slice, &net.failures()) >= 0;
        EXPECT_EQ(net.tor(r).port(cfg.topology.hosts_per_rack + s).enabled(), up)
            << "switch " << s << " rack " << r;
        live += up ? 1 : 0;
      }
    });
    net.run_until(check + sim::Time::ns(1));
    EXPECT_GT(live, 0) << "switch " << s;
  }
}

// The reconvergence sweep of live circuits agrees with a brute-force
// search of every slice and switch for each rack pair.
TEST(FaultRecovery, RelayReachMatchesBruteForce) {
  const OperaConfig cfg = config_16x4(topo::RotorSchedule::kOffset);
  OperaNetwork net(cfg);
  net.inject_switch_failure(1);
  net.inject_uplink_failure(2, 3);
  net.inject_uplink_failure(9, 0);
  net.run_until(cfg.cycle_time() + cfg.slice.duration);
  const auto& topo = net.topology();
  const auto& f = net.failures();
  int unreachable = 0;
  for (topo::Vertex r = 0; r < 16; ++r) {
    const auto sr = static_cast<std::size_t>(r);
    EXPECT_TRUE(net.relay_reach()[sr][sr]);
    for (topo::Vertex dst = 0; dst < 16; ++dst) {
      if (dst == r) continue;
      const auto sd = static_cast<std::size_t>(dst);
      bool reachable = false;
      for (int s = 0; s < topo.num_slices(); ++s) {
        for (int sw = 0; sw < 4; ++sw) {
          const auto ssw = static_cast<std::size_t>(sw);
          if (sw == topo.reconfiguring_switch(s) || topo.circuit_peer(sw, r, s) != dst) continue;
          if (f.switch_failed[ssw] || f.uplink_failed[sr][ssw] || f.uplink_failed[sd][ssw]) continue;
          reachable = true;
        }
      }
      EXPECT_EQ(net.relay_reach()[sr][sd], reachable) << r << " -> " << dst;
      if (!reachable) ++unreachable;
    }
  }
  EXPECT_GT(unreachable, 0);  // switch 1's pairs lost their only circuit
}

// Counts the packets a port hands it (stands in for a ToR at a port's far
// end).
class PortProbe : public net::Node {
 public:
  explicit PortProbe(sim::ShardContext& ctx) : Node(ctx, "probe") {}
  void receive(net::PacketPtr, int) override { ++packets; }
  int packets = 0;
};

// Forwarding reads the live failure set on every hop. Rack b's uplink
// into a failed uplink of rack a stays enabled until the switch next
// retargets (only a's own port goes dark at injection), so before the
// tables reconverge b's ToR must refuse b -> a traffic that the stale
// tables still send over that circuit (forward drops), not hand it to the
// port. After recovery and reconvergence the same circuit carries b -> a
// traffic again. A probe re-pointed at b's port for the circuit's span
// sees what the ToR sent into it.
TEST(FaultRecovery, ForwardingAvoidsFailedCircuitUntilRecovered) {
  const OperaConfig cfg = support::opera_testbed(kU6);
  OperaNetwork net(cfg);
  const auto& topo = net.topology();
  const int d = cfg.topology.hosts_per_rack;
  const int n = topo.num_slices();
  const int sw = 2;
  // Slice `first` is the first one routed over sw's new matching; the
  // circuit a -- b stays until sw retargets again, u - 1 slices later.
  const int first = sw + 1;
  topo::Vertex a = 0;
  while (topo.live_peer(sw, a, first, nullptr) < 0) ++a;
  const topo::Vertex b = topo.live_peer(sw, a, first, nullptr);
  const sim::Time span = cfg.slice.duration * (cfg.topology.num_switches - 2);

  // Re-points b's port for sw at `probe` at the start of slice `slice`,
  // then sends b -> a low-latency flows for the circuit's span. `before`
  // runs first, in the same global event.
  const auto probe_window = [&](int slice, PortProbe& probe, auto before) {
    const sim::Time at = cfg.slice.duration * slice + sim::Time::us(1);
    net.sim().schedule_at(at, [&net, &probe, b, d, before] {
      before();
      net.tor(b).port(d + sw).connect(&probe, d + sw);
    });
    for (int k = 0; k < 20; ++k) {
      const auto src = static_cast<std::int32_t>(b * d + k % d);
      const auto dst = static_cast<std::int32_t>(a * d + k % d);
      net.submit_flow(src, dst, 6'000, at + span * k / 20 + sim::Time::us(1));
    }
  };
  PortProbe failed(net.tor(b).ctx());
  PortProbe recovered(net.tor(b).ctx());
  std::uint64_t drops_at_recovery = 0;
  probe_window(first, failed, [&net, a] { net.inject_uplink_failure(a, sw); });
  // Recover one cycle later, once the failure's reconvergence has run;
  // the recovery reconverges one cycle after that.
  net.sim().schedule_at(cfg.slice.duration * (first + n) + sim::Time::us(50),
                        [&net, &drops_at_recovery, a] {
                          drops_at_recovery = net.tor_stats().forward_drops;
                          net.recover_uplink(a, sw);
                        });
  probe_window(first + 3 * n, recovered, [] {});
  net.run_until(cfg.slice.duration * (first + 3 * n) + span);

  EXPECT_EQ(failed.packets, 0);
  EXPECT_GT(drops_at_recovery, 0u);
  EXPECT_GT(recovered.packets, 0);
}

}  // namespace
}  // namespace opera::core
