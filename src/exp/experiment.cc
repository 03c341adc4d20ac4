#include "exp/experiment.h"

#include <chrono>

#include "fluid/fluid_network.h"

namespace opera::exp {

const std::vector<SizeBucket>& fct_buckets() {
  static const std::vector<SizeBucket> buckets = {
      {0, 10'000, "<10KB"},
      {10'000, 100'000, "10KB-100KB"},
      {100'000, 1'000'000, "100KB-1MB"},
      {1'000'000, 15'000'000, "1MB-15MB"},
      {15'000'000, 1LL << 62, ">=15MB (bulk)"},
  };
  return buckets;
}

Experiment::Experiment(std::string name, int argc, char** argv)
    : opts_(CliOptions::parse(argc, argv)),
      report_(std::move(name), opts_.format) {
  // Every bench binary goes through Experiment, so this is the one place
  // the fluid/hybrid builders are guaranteed to be installed before the
  // first NetworkFactory::build (core cannot depend on fluid itself).
  fluid::register_fluid_engines();
}

Experiment::RunResult Experiment::build(const std::string& label,
                                        const core::FabricConfig& config) {
  RunResult result;
  result.label = label;
  result.config = config;
  core::FabricConfig& effective = result.config;
  // --threads/--engine apply to any run that didn't pin its own.
  if (effective.threads == 0) effective.threads = opts_.threads;
  if (opts_.engine && effective.engine == core::EngineKind::kPacket) {
    effective.engine = *opts_.engine;
  }
  // Packet runs (the default) emit no engine note.
  if (effective.engine != noted_engine_) {
    noted_engine_ = effective.engine;
    if (effective.engine != core::EngineKind::kPacket) {
      report_.note("engine=%s", core::engine_kind_name(effective.engine));
    }
  }
  const auto build_start = std::chrono::steady_clock::now();
  result.net = core::NetworkFactory::build(effective);
  result.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start)
          .count();
  // Emit the shard count as report metadata, from the *resolved* count
  // (which includes the OPERA_TEST_THREADS env default and the rack-count
  // clamp — not just the raw flag), so result artifacts record how the
  // wall-clock was produced (scripts/check_bench_baseline.py carries it
  // through). Re-emitted whenever a sweep's resolved count changes;
  // parse_csv_threads summarizes a mixed artifact as the maximum.
  if (result.net->num_shards() != noted_threads_ &&
      (result.net->num_shards() > 1 || noted_threads_ > 0)) {
    noted_threads_ = result.net->num_shards();
    report_.note("threads=%d", noted_threads_);
  }
  return result;
}

void Experiment::drive(RunResult& run, const std::vector<workload::FlowSpec>& flows,
                       const RunOptions& opts, RunGuardOptions guard,
                       RunRecipe recipe) {
  if (opts.setup) opts.setup(*run.net);
  recipe.config = run.config;
  recipe.horizon = opts.horizon;
  // Only a checkpoint needs the flow list: copy it only then.
  if (!guard.checkpoint_path.empty()) recipe.flows = flows;
  guard.partial_report = [this, flush = std::move(guard.partial_report)](
                             const char* reason, double wall_s) {
    report_.note("PARTIAL RUN: %s", reason);
    if (flush) flush(reason, wall_s);
    report_.finish();
  };
  RunGuard guarded(std::move(recipe), std::move(guard));
  for (const auto& f : flows) {
    run.net->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start,
                             opts.force_class);
  }
  run.status = guarded.drive(*run.net);
  run.wall_seconds = guarded.wall_seconds();
}

Experiment::RunResult Experiment::run(const std::string& label,
                                      const core::FabricConfig& config,
                                      const std::vector<workload::FlowSpec>& flows,
                                      const RunOptions& opts) {
  RunResult result = build(label, config);
  drive(result, flows, opts);
  return result;
}

void Experiment::emit_fct_rows(const std::string& label, double load_pct,
                               const core::Network& net) {
  auto& table = report_.table(
      "fct", {"fabric", "load_pct", "bucket", "flows", "p50_us", "p99_us"});
  const auto& tracker = net.tracker();
  for (const auto& bucket : fct_buckets()) {
    const auto fct = tracker.fct_us(bucket.lo, bucket.hi);
    if (fct.empty()) {
      table.row({label, Value(load_pct, 0), bucket.label,
                 static_cast<std::int64_t>(fct.count()), "-", "-"});
      continue;
    }
    table.row({label, Value(load_pct, 0), bucket.label,
               static_cast<std::int64_t>(fct.count()),
               Value(fct.percentile(50), 1), Value(fct.percentile(99), 1)});
  }
}

void Experiment::run_fct_sweep(const FctSweep& sweep) {
  for (const double load : sweep.loads) {
    const auto flows = sweep.make_flows(load);
    for (const auto& fabric : sweep.fabrics) {
      RunOptions opts;
      opts.horizon = sweep.horizon;
      const auto result = run(fabric.label, fabric.config, flows, opts);
      emit_fct_rows(fabric.label, load * 100.0, *result.net);
    }
  }
}

}  // namespace opera::exp
