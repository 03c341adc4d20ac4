// Failure storms (exp/scenario + core fault injection): the last-path
// safety property on the abstract storm timeline, gray-loss statistics
// against their binomial model, recovery restoring the pre-storm
// baseline, and the whole armed storm+gray+skew suite staying
// bit-identical across --threads ∈ {1, 2, 4} (the ShardParity contract
// extended to scenario runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/opera_network.h"
#include "exp/scenario.h"
#include "sim/rng.h"
#include "support/support.h"

namespace opera {
namespace {

exp::ScenarioSpec parse_one(const std::string& text) {
  const auto r = exp::parse_scenario(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.error;
  return r.specs.empty() ? exp::ScenarioSpec{} : r.specs.front();
}

// ---------------------------------------------------------------------------
// Last-path property (validate_scenario's abstract timeline replay).
// ---------------------------------------------------------------------------

TEST(FailureStorms, StormMayNotKillEveryRacksLastPath) {
  const auto config = core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 4);
  // All 4 rotor switches down with no recovery: every rack partitioned.
  const auto all_down =
      parse_one("storm-rolling:switches=4,period-ms=1,recover-ms=0");
  const std::string err = exp::validate_scenario(all_down, config);
  EXPECT_NE(err.find("last path"), std::string::npos) << err;
  EXPECT_NE(err.find("partitionable=1"), std::string::npos) << err;

  // The same storm declared partitionable is accepted.
  EXPECT_EQ(exp::validate_scenario(
                parse_one("storm-rolling:switches=4,period-ms=1,recover-ms=0,"
                          "partitionable=1"),
                config),
            "");

  // Rolling through all 4 switches is fine when outages never overlap
  // enough: each recovers before the fourth goes dark.
  EXPECT_EQ(exp::validate_scenario(
                parse_one("storm-rolling:switches=4,period-ms=5,recover-ms=3"),
                config),
            "");
}

TEST(FailureStorms, TransientAllDarkMomentIsStillRejected) {
  // Failures at 1,2,3,4 ms; recoveries at 4,5,6,7 ms. At t=4 the fourth
  // failure and the first recovery coincide — failures order first, so
  // for an instant all 4 switches are dark. The validator must catch it.
  const auto config = core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 4);
  const auto storm =
      parse_one("storm-rolling:switches=4,period-ms=1,recover-ms=3");
  const std::string err = exp::validate_scenario(storm, config);
  EXPECT_NE(err.find("4 rotor switches down at 4 ms"), std::string::npos) << err;
}

TEST(FailureStorms, SingleSwitchFabricRejectsRackStorms) {
  // With u=1 the shared uplink is every rack's only path.
  const auto config = core::FabricConfig::make(core::FabricKind::kOpera).scale(8, 1);
  const std::string err = exp::validate_scenario(parse_one("storm-racks:switch=0"),
                                                 config);
  EXPECT_NE(err.find("last"), std::string::npos) << err;
  EXPECT_EQ(exp::validate_scenario(
                parse_one("storm-racks:switch=0,partitionable=1"), config),
            "");
}

// ---------------------------------------------------------------------------
// Gray failures.
// ---------------------------------------------------------------------------

TEST(FailureStorms, GrayLossMatchesTheBinomialModel) {
  core::OperaNetwork net(support::opera_testbed(support::kMixedK8));
  const double loss = 0.05;
  // Degrade every uplink in the fabric so every inter-rack transmission
  // tosses the coin.
  for (std::int32_t rack = 0; rack < 16; ++rack) {
    for (int sw = 0; sw < 4; ++sw) {
      net.inject_gray_uplink(rack, sw, loss, sim::Time::us(5));
    }
  }
  support::submit_mixed_workload(net);
  net.run_until(sim::Time::ms(100));

  std::int64_t tested = 0;
  std::int64_t drops = 0;
  for (std::int32_t rack = 0; rack < 16; ++rack) {
    for (int sw = 0; sw < 4; ++sw) {
      const auto& port = net.tor(rack).port(/*hosts_per_rack=*/4 + sw);
      tested += port.gray_tested();
      drops += port.gray_drops();
    }
  }
  ASSERT_GT(tested, 2000) << "workload did not exercise the uplinks";
  // The per-packet hash coin must behave like iid Bernoulli(loss): the
  // observed drop count stays within 4.5 sigma of the mean. The run is
  // deterministic, so this documents the distribution rather than
  // flaking — a biased hash (e.g. reusing the verdict per packet id)
  // shows up here as a wildly out-of-band count.
  const double expected = static_cast<double>(tested) * loss;
  const double sigma = std::sqrt(static_cast<double>(tested) * loss * (1 - loss));
  EXPECT_NEAR(static_cast<double>(drops), expected, 4.5 * sigma + 1.0);
  // And the network-level counter aggregates the same drops.
  EXPECT_EQ(net.tor_stats().wire_drops, static_cast<std::uint64_t>(drops));
  // Transports recover from wire loss: the run still completes.
  EXPECT_EQ(net.tracker().completed(), 160u);
}

TEST(FailureStorms, GrayLossInflatesFctAgainstACleanRun) {
  // Same workload with and without gray links; loss shows up as FCT
  // inflation, not hangs — the behavior no fail-stop scenario exhibits.
  core::OperaConfig cfg = support::opera_testbed(support::kMixedK8);
  core::OperaNetwork clean(cfg);
  support::submit_mixed_workload(clean);
  clean.run_until(sim::Time::ms(100));

  core::OperaNetwork gray(cfg);
  for (std::int32_t rack = 0; rack < 16; ++rack) {
    for (int sw = 0; sw < 4; ++sw) {
      gray.inject_gray_uplink(rack, sw, 0.05, sim::Time::us(5));
    }
  }
  support::submit_mixed_workload(gray);
  gray.run_until(sim::Time::ms(100));

  ASSERT_EQ(clean.tracker().completed(), 160u);
  ASSERT_EQ(gray.tracker().completed(), 160u);
  const auto clean_fct = clean.tracker().fct_us(0, 1'000'000'000);
  const auto gray_fct = gray.tracker().fct_us(0, 1'000'000'000);
  EXPECT_GT(gray_fct.percentile(50), clean_fct.percentile(50));
  EXPECT_GT(gray.tor_stats().wire_drops, 0u);
  EXPECT_EQ(clean.tor_stats().wire_drops, 0u);
}

TEST(FailureStorms, ClearingGrayRestoresService) {
  // loss=1.0 blackholes every uplink of racks 0 and 1 without touching
  // routing (the gray premise: tables still use the link). Nothing can
  // leave those racks until the optics are replaced at 2 ms.
  core::OperaNetwork net(support::opera_testbed(support::kMixedK8));
  for (std::int32_t rack = 0; rack < 2; ++rack) {
    for (int sw = 0; sw < 4; ++sw) {
      net.inject_gray_uplink(rack, sw, 1.0, sim::Time::zero());
    }
  }
  for (int i = 0; i < 8; ++i) {
    net.submit_flow(i, 32 + i, 20'000, sim::Time::us(10 * i));
  }
  net.sim().schedule_at(sim::Time::ms(2), [&net] {
    for (std::int32_t rack = 0; rack < 2; ++rack) {
      for (int sw = 0; sw < 4; ++sw) net.clear_gray_uplink(rack, sw);
    }
  });
  net.run_until(sim::Time::ms(2));
  EXPECT_EQ(net.tracker().completed(), 0u);
  const auto mid_drops = net.tor_stats().wire_drops;
  EXPECT_GT(mid_drops, 0u);
  net.run_until(sim::Time::ms(30));
  EXPECT_EQ(net.tracker().completed(), 8u);
  // Cleared ports stop tossing coins entirely.
  EXPECT_EQ(net.tor_stats().wire_drops, mid_drops);
}

// ---------------------------------------------------------------------------
// Recovery restores the baseline.
// ---------------------------------------------------------------------------

TEST(FailureStorms, RecoveredFabricMatchesTheNeverFailedBaseline) {
  // A storm that fully recovers before any traffic starts must leave the
  // fabric byte-for-byte equivalent to one that never failed: identical
  // completion stream and identical ToR drop counters. This is the
  // strongest form of "recovery restores baseline ToR counters".
  core::OperaConfig cfg = support::opera_testbed(support::kMixedK8);
  const auto run = [&cfg](bool storm) {
    core::OperaNetwork net(cfg);
    if (storm) {
      net.sim().schedule_at(sim::Time::ms(1), [&net] {
        net.inject_switch_failure(2);
        net.inject_uplink_failure(3, 1);
      });
      net.sim().schedule_at(sim::Time::ms(4), [&net] {
        net.recover_switch(2);
        net.recover_uplink(3, 1);
      });
    }
    // Traffic starts at 10 ms — well past recovery (4 ms) plus the
    // one-cycle hello-protocol reconvergence (16 x 99 us ~ 1.6 ms).
    sim::Rng wl(42);
    for (int i = 0; i < 120; ++i) {
      const auto src = static_cast<std::int32_t>(wl.index(64));
      auto dst = static_cast<std::int32_t>(wl.index(64));
      while (dst == src) dst = static_cast<std::int32_t>(wl.index(64));
      const std::int64_t bytes = (i % 4 == 0) ? 600'000 : 20'000;
      net.submit_flow(src, dst, bytes, sim::Time::ms(10) + sim::Time::us(5 * i));
    }
    net.run_until(sim::Time::ms(50));
    struct Outcome {
      std::vector<std::int64_t> ends;
      core::OperaNetwork::TorStats stats;
      std::size_t completed;
      bool all_clear;
    } out;
    for (const auto& rec : net.tracker().completions()) {
      out.ends.push_back(rec.end.picoseconds());
    }
    out.stats = net.tor_stats();
    out.completed = net.tracker().completed();
    out.all_clear = true;
    for (int sw = 0; sw < 4; ++sw) {
      if (net.failures().switch_failed[static_cast<std::size_t>(sw)]) {
        out.all_clear = false;
      }
    }
    return out;
  };

  const auto baseline = run(false);
  const auto recovered = run(true);
  ASSERT_EQ(baseline.completed, 120u);
  EXPECT_EQ(recovered.completed, 120u);
  EXPECT_TRUE(recovered.all_clear);
  EXPECT_EQ(baseline.ends, recovered.ends)
      << "post-recovery fabric routes differently from a never-failed one";
  EXPECT_EQ(baseline.stats.drops, recovered.stats.drops);
  EXPECT_EQ(baseline.stats.trims, recovered.stats.trims);
  EXPECT_EQ(baseline.stats.forward_drops, recovered.stats.forward_drops);
  EXPECT_EQ(baseline.stats.wire_drops, recovered.stats.wire_drops);
}

TEST(FailureStorms, TrafficSurvivesAStormWithMidStreamRecovery) {
  // Flows in flight across failure and recovery: everything completes.
  core::OperaNetwork net(support::opera_testbed(support::kMixedK8));
  support::submit_mixed_workload(net);
  const auto suite = exp::parse_scenarios(
      "storm-rolling:switches=2,start-ms=1,period-ms=2,recover-ms=5");
  ASSERT_TRUE(suite.ok()) << suite.error;
  for (const auto& spec : suite.specs) exp::arm_scenario(spec, net);
  net.run_until(sim::Time::ms(100));
  EXPECT_EQ(net.tracker().completed(), 160u);
}

// ---------------------------------------------------------------------------
// Sharded determinism: the ShardParity contract for armed scenarios.
// ---------------------------------------------------------------------------

support::RunSnapshot run_storm_suite(core::OperaConfig cfg, int threads) {
  cfg.threads = threads;
  core::OperaNetwork net(cfg);
  EXPECT_EQ(net.num_shards(), std::min<int>(threads, net.num_racks()));

  // Rolling storm + gray links + a desynced rotor, all armed through the
  // declarative layer exactly as bench_custom --scenario does.
  const auto suite = exp::parse_scenarios(
      "storm-rolling:switches=2,start-ms=1,period-ms=2,recover-ms=5;"
      "gray:links=6,loss=0.05,extra-us=20,start-ms=0,recover-ms=15;"
      "skew:switch=3,extra-us=40,slices=30,start-ms=2");
  EXPECT_TRUE(suite.ok()) << suite.error;
  const auto config = core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 4);
  for (const auto& spec : suite.specs) {
    EXPECT_EQ(exp::validate_scenario(spec, config), "");
    exp::arm_scenario(spec, net);
  }
  support::submit_mixed_workload(net);
  return support::finish_run(net);
}

TEST(FailureStorms, StormSuiteBitIdenticalAcrossThreads) {
  const core::OperaConfig cfg = support::opera_testbed(support::kMixedK8);
  const auto one = run_storm_suite(cfg, 1);
  ASSERT_GT(one.tor.value().wire_drops, 0u) << "gray links saw no traffic";
  for (const int threads : {2, 4}) {
    support::expect_same_run(one, run_storm_suite(cfg, threads),
                             "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace opera
