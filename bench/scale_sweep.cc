// bench_scale_sweep — the datacenter traffic patterns the paper motivates
// but never sweeps (incast, storage replication, ML ring all-reduce),
// driven through Opera at two scales:
//
//   quick  : the 16x4 laptop testbed (CI per-PR run)
//   --full : k=24 — 432 racks x 12 hosts (5184 hosts), the ROADMAP's
//            paper-scale target. Its 432 slice tables (~173 MB of
//            next-hop masks) fit the 256 MB table budget, so the
//            slice-table cache resolves eager.
//
// Both modes also run a construction + short-sweep "scale probe" one rung
// above the sweep scale: quick probes k=12 (24 racks x 6 hosts), --full
// probes k=32 (768 racks x 16 hosts = 12288 hosts) — the rung the sparse
// VOQs (transport/sparse_voq.h) and the sharded event loop unlock. The
// probe row records the sparse-VOQ structural memory next to peak RSS.
//
// All modes emit the same table shapes (the baseline row fingerprint is
// scale-independent): per-pattern run and slice-cache rows, the standard
// FCT buckets, the scale-probe row, and a process-wide peak-RSS row.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/opera_network.h"
#include "exp/experiment.h"
#include "exp/scenario.h"
#include "exp/testbed.h"
#include "workload/flow_size_dist.h"
#include "workload/synthetic.h"

namespace {

using namespace opera;

struct Pattern {
  std::string name;
  std::vector<workload::FlowSpec> flows;
};

std::vector<Pattern> make_patterns(bool full, std::int32_t num_hosts,
                                   std::int32_t hosts_per_rack) {
  std::vector<Pattern> out;
  {
    sim::Rng rng(11);
    workload::IncastParams p;
    p.events = full ? 12 : 6;
    p.fanin = full ? 128 : 24;
    p.flow_bytes = 64'000;
    out.push_back({"incast", workload::incast_workload(num_hosts, hosts_per_rack,
                                                       p, rng)});
  }
  {
    sim::Rng rng(12);
    workload::StorageReplicationParams p;
    p.writes = full ? 128 : 24;
    p.object_bytes = full ? 4'000'000 : 2'000'000;
    out.push_back({"storage", workload::storage_replication_workload(
                                  num_hosts, hosts_per_rack, p, rng)});
  }
  {
    sim::Rng rng(13);
    workload::MlCollectiveParams p;
    p.group_size = full ? 16 : 8;
    p.model_bytes = full ? 2'000'000 : 1'000'000;
    // One training job on a slice of the cluster: rings never need the
    // whole fabric, and capping the job keeps the --full flow count sane.
    const std::int32_t job_hosts = std::min<std::int32_t>(num_hosts, full ? 512 : 64);
    out.push_back({"ml_collective", workload::ml_collective_workload(
                                        job_hosts, hosts_per_rack, p, rng)});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Experiment ex("scale sweep (incast / storage / ML collective)", argc, argv);
  const bool full = ex.full();

  core::FabricConfig config =
      full ? core::FabricConfig::make(core::FabricKind::kOpera).scale(432, 12)
           : exp::Testbed::quick().opera();

  const auto patterns =
      make_patterns(full, config.num_hosts(), config.opera.hosts_per_rack);

  auto& run_table = ex.report().table(
      "run", {"pattern", "flows", "completed", "sim_ms", "wall_s"});
  auto& cache_table = ex.report().table(
      "slice_cache", {"pattern", "mode", "window", "slices", "peak_mb",
                      "demand_builds", "prefetch_builds", "evictions"});

  for (const auto& pattern : patterns) {
    exp::Experiment::RunOptions opts;
    opts.horizon = sim::Time::ms(full ? 200 : 50);
    const auto result = ex.run(pattern.name, config, pattern.flows, opts);
    run_table.row({pattern.name, static_cast<std::int64_t>(pattern.flows.size()),
                   static_cast<std::int64_t>(result.net->tracker().completed()),
                   exp::Value(result.status.ended_at.to_ms(), 3),
                   exp::Value(result.wall_seconds, 2)});
    ex.emit_fct_rows(pattern.name, 100.0, *result.net);

    const auto& cache =
        dynamic_cast<const core::OperaNetwork&>(*result.net).slice_tables();
    const auto& st = cache.stats();
    cache_table.row({pattern.name, cache.eager() ? "eager" : "windowed",
                     cache.window(), cache.num_slices(),
                     exp::Value(st.peak_resident_bytes / 1e6, 1),
                     static_cast<std::int64_t>(st.demand_builds),
                     static_cast<std::int64_t>(st.prefetch_builds),
                     static_cast<std::int64_t>(st.evictions)});
  }

  // Scenario leg (docs/SCENARIOS.md): the composed day-in-the-life, the
  // same day over gray (lossy-not-dead) links, and the schedule-
  // adversarial permutation under a rolling rotor storm. The gray row is
  // the behavior no static-failure bench shows: routing still uses the
  // degraded links, so FCT inflates and wire_drops counts the silent loss
  // — compare its p50/p99 against the clean ditl row. Suites are
  // scale-independent strings, so quick (16x4) and --full (k=24) emit the
  // same 3-row fingerprint.
  {
    struct ScenarioRun {
      const char* label;
      const char* suite;
      int horizon_ms;  // storms need room for recovery + reconvergence
    };
    const std::vector<ScenarioRun> runs = {
        {"ditl", "ditl:phase-ms=0.5,load=0.1,seed=3", 15},
        {"ditl_gray",
         "ditl:phase-ms=0.5,load=0.1,seed=3;"
         "gray:links=10,loss=0.08,extra-us=50,start-ms=0,recover-ms=0",
         15},
        {"adv_perm_storm",
         "adversarial-perm:flow-kb=300;"
         "storm-rolling:switches=2,start-ms=1,period-ms=2,recover-ms=5",
         40},
    };
    auto& scenario_table = ex.report().table(
        "scenarios", {"scenario", "flows", "completed", "sim_ms", "wall_s",
                      "p50_us", "p99_us", "wire_drops", "tor_drops"});
    for (const auto& r : runs) {
      std::vector<exp::ScenarioSpec> suite;
      if (const std::string err = exp::load_scenarios(r.suite, config, &suite);
          !err.empty()) {
        std::fprintf(stderr, "bench_scale_sweep: %s\n", err.c_str());
        return 1;
      }
      std::vector<workload::FlowSpec> flows;
      for (const auto& spec : suite) {
        if (exp::scenario_is_workload(spec)) flows = exp::scenario_flows(spec, config);
      }
      exp::Experiment::RunOptions opts;
      opts.horizon = sim::Time::ms(r.horizon_ms);
      opts.setup = [&suite](core::Network& net) {
        for (const auto& spec : suite) exp::arm_scenario(spec, net);
      };
      const auto result = ex.run(r.label, config, flows, opts);
      const auto fct = result.net->tracker().fct_us(
          0, std::numeric_limits<std::int64_t>::max());
      const auto tor_stats =
          dynamic_cast<const core::OperaNetwork&>(*result.net).tor_stats();
      scenario_table.row(
          {r.label, static_cast<std::int64_t>(flows.size()),
           static_cast<std::int64_t>(result.net->tracker().completed()),
           exp::Value(result.status.ended_at.to_ms(), 3),
           exp::Value(result.wall_seconds, 2),
           exp::Value(fct.empty() ? 0.0 : fct.percentile(50), 1),
           exp::Value(fct.empty() ? 0.0 : fct.percentile(99), 1),
           static_cast<std::int64_t>(tor_stats.wire_drops),
           static_cast<std::int64_t>(tor_stats.drops)});
    }
  }

  // Engine sweep (docs/FLUID.md): one ditl day, identical per mode,
  // through the packet, fluid and hybrid engines, with the bulk threshold
  // at 1 MB so the day's elephants actually exercise the fluid plane at
  // bench-scale flow sizes. Quick compares all three at k=12. --full is
  // the regime the fluid backend exists for: a >=1M-flow, 2 s simulated
  // day at k=24 the packet engine cannot touch (its row stays "-"), plus
  // a moderated hybrid day at the same scale. Three rows in both modes —
  // the shape the baseline gates.
  {
    auto& engine_table = ex.report().table(
        "engine_sweep", {"engine", "racks", "flows", "completed", "sim_ms",
                         "wall_s", "events", "p50_us"});
    const auto engine_run = [&](core::EngineKind engine, const char* suite,
                                int horizon_ms) {
      core::FabricConfig cfg =
          full ? core::FabricConfig::make(core::FabricKind::kOpera).scale(432, 12)
               : core::FabricConfig::make(core::FabricKind::kOpera).scale(24, 6);
      cfg.engine = engine;
      cfg.bulk_threshold_bytes = 1'000'000;
      const auto parsed = exp::parse_scenarios(suite);
      if (!parsed.ok() || parsed.specs.size() != 1) {
        std::fprintf(stderr, "bench_scale_sweep: bad engine-sweep suite '%s'\n",
                     suite);
        std::exit(1);
      }
      const auto flows = exp::scenario_flows(parsed.specs[0], cfg);
      exp::Experiment::RunOptions opts;
      opts.horizon = sim::Time::ms(horizon_ms);
      const auto result = ex.run(core::engine_kind_name(engine), cfg, flows, opts);
      const auto fct = result.net->tracker().fct_us(
          0, std::numeric_limits<std::int64_t>::max());
      engine_table.row(
          {core::engine_kind_name(engine), cfg.opera.num_racks,
           static_cast<std::int64_t>(flows.size()),
           static_cast<std::int64_t>(result.net->tracker().completed()),
           exp::Value(result.status.ended_at.to_ms(), 3),
           exp::Value(result.wall_seconds, 2),
           static_cast<std::int64_t>(result.net->events_executed()),
           exp::Value(fct.empty() ? 0.0 : fct.percentile(50), 1)});
    };
    if (full) {
      // A packet run at a million flows x 2 s is days of wall-clock; the
      // placeholder row keeps the 3-row shape and says so.
      engine_table.row({"packet", 432, "-", "-", "-", "-", "-", "-"});
      engine_run(core::EngineKind::kFluid,
                 "ditl:phase-ms=400,load=0.27,seed=9", 2000);
      engine_run(core::EngineKind::kHybrid,
                 "ditl:phase-ms=0.5,load=0.1,seed=9", 15);
    } else {
      for (const auto engine :
           {core::EngineKind::kPacket, core::EngineKind::kFluid,
            core::EngineKind::kHybrid}) {
        engine_run(engine, "ditl:phase-ms=0.5,load=0.1,seed=9", 12);
      }
    }
  }

  // Scale probe: one rung above the sweep scale — construction plus a
  // short poisson sweep, with the sparse-VOQ memory probe. k=32 is the
  // ROADMAP rung the dense relay VOQs made infeasible (768² rings); quick
  // mode probes k=12 (the smallest rung above the 16x4 sweep testbed with
  // a fully-connected slice realization).
  {
    const std::int32_t probe_racks = full ? 768 : 24;
    const std::int32_t probe_hpr = full ? 16 : 6;
    core::FabricConfig probe =
        core::FabricConfig::make(core::FabricKind::kOpera).scale(probe_racks, probe_hpr);
    auto run = ex.build("scale_probe", probe);
    const auto& net = run.net;

    sim::Rng rng(21);
    // Datamining's heavy tail means ~7 MB mean flow size: these loads and
    // windows put a few dozen flows (mice through multi-MB elephants) on
    // the fabric in both modes.
    const auto flows = workload::poisson_workload(
        workload::FlowSizeDistribution::datamining(), net->num_hosts(),
        /*load=*/full ? 0.05 : 0.3, probe.link.rate_bps,
        full ? sim::Time::us(150) : sim::Time::ms(2), rng);
    exp::Experiment::RunOptions opts;
    opts.horizon = sim::Time::ms(full ? 20 : 50);
    ex.drive(run, flows, opts);

    const auto& opera_net = dynamic_cast<const core::OperaNetwork&>(*net);
    auto& probe_table = ex.report().table(
        "scale_probe", {"k", "racks", "hosts", "construct_s", "flows", "completed",
                        "sweep_wall_s", "voq_mb", "table_peak_mb"});
    probe_table.row({2 * probe_hpr, net->num_racks(), net->num_hosts(),
                     exp::Value(run.build_seconds, 2),
                     static_cast<std::int64_t>(flows.size()),
                     static_cast<std::int64_t>(net->tracker().completed()),
                     exp::Value(run.wall_seconds, 2),
                     exp::Value(opera_net.voq_memory_bytes() / 1e6, 2),
                     exp::Value(opera_net.slice_tables().stats().peak_resident_bytes / 1e6,
                                1)});
    ex.report().note("scale probe sim time %.3f ms", run.status.ended_at.to_ms());
  }

  auto& memory_table = ex.report().table("memory", {"peak_rss_mb"});
  memory_table.row({exp::Value(exp::peak_rss_bytes() / 1e6, 1)});
  return 0;
}
