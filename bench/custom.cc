// bench_custom — ad-hoc fabric sweeps from the command line, no recompile:
//
//   bench_custom --fabric=opera --racks=432 --hosts-per-rack=12
//                --workload=poisson --load=0.25 --duration-ms=1 --seed=1
//
// Builds any fabric through core::FabricConfig::scale() at the requested
// size (e.g. the k=24 / 5184-host Opera sweeps from the ROADMAP), reports
// construction wall-clock, and (unless --construct-only) drives one of the
// standard synthetic workloads through it and reports completion and FCT
// percentiles. --csv/--json choose the output rendering as usual.
// Fresh and resumed runs take one path: Experiment::build, then
// Experiment::drive under the guard limits the flags below set.
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "exp/experiment.h"
#include "exp/run_guard.h"
#include "exp/scenario.h"
#include "sim/checkpoint.h"
#include "workload/flow_size_dist.h"
#include "workload/synthetic.h"

namespace {

using namespace opera;

// Strict --key=value getters: a malformed value exits 2 naming the flag.
using Cli = exp::CliOptions;

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_custom [options]\n"
      "  --fabric=opera|clos|expander|rotornet   (default opera)\n"
      "  --racks=N                               (default 108)\n"
      "  --hosts-per-rack=D                      (default 6; Opera u = D)\n"
      "  --workload=poisson|permutation|shuffle|incast|storage|ml\n"
      "                                          (default poisson)\n"
      "  --scenario=SPEC[;SPEC...]  declarative scenarios (docs/SCENARIOS.md):\n"
      "                    ditl / trace / adversarial-perm replace --workload;\n"
      "                    storm-rolling / storm-racks / gray / skew arm\n"
      "                    failure events (opera only; gray/skew need the\n"
      "                    packet engine; any number)\n"
      "  --load=F          poisson offered load  (default 0.10)\n"
      "  --dist=datamining|websearch|hadoop      (default datamining)\n"
      "  --flow-kb=K       fixed-size-flow workloads' flow/object/chunk\n"
      "                    size (default 100; ml: per-member model size)\n"
      "  --duration-ms=T   poisson arrival window (default 1)\n"
      "  --horizon-ms=T    simulation horizon     (default 50)\n"
      "  --seed=S                                (default 1)\n"
      "  --slice-window=W  Opera resident slice tables (default 0 = auto:\n"
      "                    eager if all fit 16 MB, else windowed)\n"
      "  --threads=N       shard the event loop over N rack domains\n"
      "                    (any packet fabric; bit-identical for any N)\n"
      "  --engine=packet|fluid|hybrid  simulation engine (Opera only;\n"
      "                    fluid integrates bulk flows as rate groups,\n"
      "                    hybrid splits by bulk threshold — docs/FLUID.md)\n"
      "  --construct-only  build the network, skip the traffic run\n"
      "  --csv | --json    output format\n"
      "run guardrails (docs/CHECKPOINT.md):\n"
      "  --checkpoint-every=T  write a checkpoint every T ms of sim time\n"
      "  --checkpoint-to=FILE  checkpoint destination (default\n"
      "                        bench_custom.ckpt; atomic tmp+rename)\n"
      "  --resume=FILE     rebuild + replay from FILE's checkpoint; run\n"
      "                    parameters come from the file (--threads, guard\n"
      "                    flags and output format are still honored;\n"
      "                    --scenario conflicts)\n"
      "  --max-wall-s=S    wall-clock watchdog: checkpoint + partial report\n"
      "                    + exit 43 after S seconds\n"
      "  --max-rss-mb=M    memory guard: degrade (shrink slice window),\n"
      "                    then checkpoint + partial report + exit 44\n"
      "  SIGINT/SIGTERM    partial report + exit 42 (+ checkpoint when a\n"
      "                    guard flag names one)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (Cli::has_flag(argc, argv, "--help")) return usage();

  const std::string fabric_name = Cli::arg_string(argc, argv, "--fabric", "opera");
  const auto kind = core::parse_fabric_kind(fabric_name);
  if (!kind) {
    std::fprintf(stderr, "bench_custom: unknown fabric '%s'\n", fabric_name.c_str());
    return usage();
  }
  const std::int32_t racks = Cli::arg_count(argc, argv, "--racks", 108);
  const std::int32_t hosts_per_rack = Cli::arg_count(argc, argv, "--hosts-per-rack", 6);
  if (racks < 1 || hosts_per_rack < 1) {
    std::fprintf(stderr, "bench_custom: --racks and --hosts-per-rack must be at least 1\n");
    return 2;
  }
  const std::string workload_name = Cli::arg_string(argc, argv, "--workload", "poisson");
  const double load = Cli::arg<double>(argc, argv, "--load", 0.10);
  const std::string dist_name = Cli::arg_string(argc, argv, "--dist", "datamining");
  const auto flow_kb = Cli::arg<std::int64_t>(argc, argv, "--flow-kb", 100);
  if (constexpr auto kMaxKb = std::numeric_limits<std::int64_t>::max() / 1000;
      flow_kb < 1 || flow_kb > kMaxKb) {
    std::fprintf(stderr, "bench_custom: --flow-kb must be in [1, %lld]\n",
                 static_cast<long long>(kMaxKb));
    return 2;
  }
  const std::int64_t flow_bytes = flow_kb * 1000;
  const double duration_ms = Cli::arg<double>(argc, argv, "--duration-ms", 1.0);
  const double horizon_ms = Cli::arg<double>(argc, argv, "--horizon-ms", 50.0);
  const auto seed = Cli::arg<std::uint64_t>(argc, argv, "--seed", 1);
  const bool construct_only = Cli::has_flag(argc, argv, "--construct-only");
  const int slice_window = Cli::arg_count(argc, argv, "--slice-window", 0);
  const std::string scenario_str = Cli::arg_string(argc, argv, "--scenario", "");

  // Run guardrails (exp::RunGuard). Any of these flags names a checkpoint
  // destination; a plain run writes none.
  const double checkpoint_every_ms =
      Cli::arg<double>(argc, argv, "--checkpoint-every", 0.0);
  const double max_wall_s = Cli::arg<double>(argc, argv, "--max-wall-s", 0.0);
  const double max_rss_mb = Cli::arg<double>(argc, argv, "--max-rss-mb", 0.0);
  const std::string resume_path = Cli::arg_string(argc, argv, "--resume", "");
  std::string checkpoint_path = Cli::arg_string(argc, argv, "--checkpoint-to", "");
  const bool resuming = !resume_path.empty();
  if (checkpoint_path.empty() &&
      (resuming || checkpoint_every_ms > 0 || max_wall_s > 0 || max_rss_mb > 0)) {
    checkpoint_path = resuming ? resume_path : "bench_custom.ckpt";
  }

  exp::Experiment ex("custom fabric sweep", argc, argv);

  core::FabricConfig config = core::FabricConfig::make(*kind);
  config.scale(racks, hosts_per_rack);
  config.seed = seed;
  config.slice_table_window = slice_window;
  // Scenario validation below needs the engine the run will use.
  config.engine = ex.cli().engine.value_or(core::EngineKind::kPacket);

  // Resume: run parameters come from the checkpoint (the recipe), not the
  // CLI — replaying a different workload against a restored time marker
  // could only produce garbage. --threads stays an override (the restored
  // run is bit-identical at any shard count).
  exp::RunRecipe recipe;
  std::vector<workload::FlowSpec> flows;
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  if (resuming) {
    if (!scenario_str.empty()) {
      std::fprintf(stderr,
                   "bench_custom: --scenario conflicts with --resume (the "
                   "scenario suite is recorded in the checkpoint)\n");
      return 2;
    }
    if (ex.cli().engine) {
      std::fprintf(stderr,
                   "bench_custom: --engine conflicts with --resume (the "
                   "engine is recorded in the checkpoint)\n");
      return 2;
    }
    auto parsed = sim::load_checkpoint(resume_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench_custom: %s\n", parsed.error.c_str());
      return 2;
    }
    if (const std::string err = exp::recipe_from_checkpoint(
            parsed.data, &recipe, &resume_time, &resume_digest);
        !err.empty()) {
      std::fprintf(stderr, "bench_custom: %s: %s\n", resume_path.c_str(),
                   err.c_str());
      return 2;
    }
    if (ex.cli().threads != 0) recipe.config.threads = ex.cli().threads;
    config = recipe.config;
  } else {
    recipe.run_label = workload_name;
    recipe.fabric_label = fabric_name;
    recipe.load_pct = load * 100.0;
    recipe.scenario = scenario_str;
    recipe.horizon = sim::Time::from_us(horizon_ms * 1000.0);
  }

  std::vector<exp::ScenarioSpec> scenarios;
  if (const std::string err = exp::load_scenarios(recipe.scenario, config, &scenarios);
      !err.empty()) {
    std::fprintf(stderr, "bench_custom: %s\n", err.c_str());
    return 2;
  }

  exp::Experiment::RunResult run;
  try {
    run = ex.build(recipe.fabric_label, config);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_custom: %s\n", e.what());
    return 2;
  }
  auto& net = run.net;
  auto& build_table = ex.report().table(
      "build", {"fabric", "racks", "hosts", "construct_s"});
  build_table.row({net->describe(), net->num_racks(), net->num_hosts(),
                   exp::Value(run.build_seconds, 3)});
  if (construct_only) return 0;

  // Scenario wiring: a workload scenario replaces --workload; failure
  // scenarios arm coordinator-phase events before the run starts.
  const exp::ScenarioSpec* workload_scenario = nullptr;
  for (const auto& s : scenarios) {
    ex.report().note("scenario: %s", exp::describe(s).c_str());
    if (exp::scenario_is_workload(s)) workload_scenario = &s;
  }

  sim::Rng rng(seed + 1);
  if (resuming) {
    flows = std::move(recipe.flows);
  } else if (workload_scenario != nullptr) {
    recipe.run_label = exp::scenario_kind_name(workload_scenario->kind);
    std::string err;
    flows = exp::scenario_flows(*workload_scenario, config, &err);
    if (!err.empty()) {
      std::fprintf(stderr, "bench_custom: scenario workload failed — %s\n",
                   err.c_str());
      return 2;
    }
  } else if (workload_name == "poisson") {
    const auto dist = dist_name == "websearch"  ? workload::FlowSizeDistribution::websearch()
                      : dist_name == "hadoop"   ? workload::FlowSizeDistribution::hadoop()
                                                : workload::FlowSizeDistribution::datamining();
    try {
      flows = workload::poisson_workload(dist, net->num_hosts(), load,
                                         config.link.rate_bps,
                                         sim::Time::from_us(duration_ms * 1000.0), rng);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bench_custom: %s\n", e.what());
      return 2;
    }
  } else if (workload_name == "permutation") {
    flows = workload::permutation_workload(net->num_hosts(), hosts_per_rack,
                                           flow_bytes, rng);
  } else if (workload_name == "shuffle") {
    flows = workload::shuffle_workload(net->num_hosts(), hosts_per_rack, flow_bytes,
                                       sim::Time::zero(), rng);
  } else if (workload_name == "incast") {
    workload::IncastParams p;
    p.flow_bytes = flow_bytes;
    flows = workload::incast_workload(net->num_hosts(), hosts_per_rack, p, rng);
  } else if (workload_name == "storage") {
    workload::StorageReplicationParams p;
    p.object_bytes = flow_bytes;
    flows = workload::storage_replication_workload(net->num_hosts(), hosts_per_rack,
                                                   p, rng);
  } else if (workload_name == "ml") {
    workload::MlCollectiveParams p;
    p.model_bytes = flow_bytes;
    flows = workload::ml_collective_workload(net->num_hosts(), hosts_per_rack, p, rng);
  } else {
    std::fprintf(stderr, "bench_custom: unknown workload '%s'\n",
                 workload_name.c_str());
    return usage();
  }

  // Result tail, shared between normal completion and the guard's
  // partial-report exit path (SIGINT/watchdog/memory).
  const auto emit_results = [&](sim::Time ended_at, double run_seconds) {
    auto& run_table = ex.report().table(
        "run", {"workload", "flows", "completed", "sim_ms", "wall_s", "events"});
    run_table.row({recipe.run_label, static_cast<std::int64_t>(flows.size()),
                   static_cast<std::int64_t>(net->tracker().completed()),
                   exp::Value(ended_at.to_ms(), 3), exp::Value(run_seconds, 3),
                   static_cast<std::int64_t>(net->events_executed())});
    ex.emit_fct_rows(recipe.fabric_label, recipe.load_pct, *net);

    if (!scenarios.empty()) {
      const auto fct =
          net->tracker().fct_us(0, std::numeric_limits<std::int64_t>::max());
      core::OperaNetwork::TorStats tor_stats;
      if (const auto* opera_net = dynamic_cast<const core::OperaNetwork*>(net.get())) {
        tor_stats = opera_net->tor_stats();
      }
      auto& scenario_table = ex.report().table(
          "scenario",
          {"scenario", "flows", "completed", "p50_us", "p99_us", "wire_drops",
           "tor_drops"});
      scenario_table.row(
          {recipe.scenario, static_cast<std::int64_t>(flows.size()),
           static_cast<std::int64_t>(net->tracker().completed()),
           exp::Value(fct.empty() ? 0.0 : fct.percentile(50), 1),
           exp::Value(fct.empty() ? 0.0 : fct.percentile(99), 1),
           static_cast<std::int64_t>(tor_stats.wire_drops),
           static_cast<std::int64_t>(tor_stats.drops)});
    }

    // RotorNet runs on OperaNetwork too, but routes without slice tables.
    const auto* opera_net = dynamic_cast<const core::OperaNetwork*>(net.get());
    if (opera_net != nullptr && opera_net->slice_tables().num_slices() > 0) {
      const auto& cache = opera_net->slice_tables();
      const auto& st = cache.stats();
      ex.report().note(
          "slice tables: %s window %d of %d, resident %zu (%.1f MB, peak %.1f MB), "
          "builds %llu demand + %llu prefetch, evictions %llu",
          cache.eager() ? "eager" : "windowed", cache.window(), cache.num_slices(),
          st.resident, st.resident_bytes / 1e6, st.peak_resident_bytes / 1e6,
          static_cast<unsigned long long>(st.demand_builds),
          static_cast<unsigned long long>(st.prefetch_builds),
          static_cast<unsigned long long>(st.evictions));
    }
    ex.report().note("peak RSS %.1f MB", exp::peak_rss_bytes() / 1e6);
  };

  exp::Experiment::RunOptions opts;
  opts.horizon = recipe.horizon;
  opts.setup = [&scenarios](core::Network& n) {
    for (const auto& s : scenarios) exp::arm_scenario(s, n);
  };
  exp::RunGuardOptions guard;
  guard.checkpoint_every = sim::Time::from_us(checkpoint_every_ms * 1000.0);
  guard.checkpoint_path = checkpoint_path;
  guard.max_wall_s = max_wall_s;
  guard.max_rss_bytes = static_cast<std::size_t>(max_rss_mb * 1e6);
  guard.resume_time = resume_time;
  guard.resume_digest = resume_digest;
  guard.partial_report = [&](const char*, double wall_s) {
    emit_results(net->sim().now(), wall_s);
  };
  // drive() fills in the recipe's config, horizon and (for checkpoints)
  // flows; the labels and scenario suite come from here.
  ex.drive(run, flows, opts, std::move(guard), recipe);
  emit_results(run.status.ended_at, run.wall_seconds);
  return 0;
}
