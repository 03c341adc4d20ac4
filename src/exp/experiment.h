// exp::Experiment — the experiment driver the bench binaries run on.
//
// It owns the one path from config to finished run: build() applies the
// --threads/--engine overrides, notes them and times construction;
// drive() submits the flows (remapped into the fabric's host range) and
// runs them under exp::RunGuard; run() is both. A figure like Fig. 9
// reduces to a declarative FctSweep (fabrics x loads x workload); one-off
// scenarios use run() directly and query the returned network.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "exp/output.h"
#include "exp/run_guard.h"
#include "exp/testbed.h"
#include "sim/time.h"
#include "workload/synthetic.h"

namespace opera::exp {

// Flow-size buckets for FCT-vs-size rows (log-spaced like the paper's
// Fig. 7/9 x axes).
struct SizeBucket {
  std::int64_t lo;
  std::int64_t hi;
  const char* label;
};
[[nodiscard]] const std::vector<SizeBucket>& fct_buckets();

class Experiment {
 public:
  // Parses --full / --csv / --json from argv and opens the report.
  Experiment(std::string name, int argc, char** argv);

  [[nodiscard]] bool full() const { return opts_.full; }
  [[nodiscard]] const CliOptions& cli() const { return opts_; }
  [[nodiscard]] Report& report() { return report_; }

  struct RunOptions {
    sim::Time horizon;
    // Tag every submitted flow (application-based tagging, §3.4).
    std::optional<net::TrafficClass> force_class;
    // Runs after construction, before submission — install tracker hooks.
    std::function<void(core::Network&)> setup;
  };

  struct RunResult {
    std::string label;
    core::FabricConfig config;  // as built: --threads/--engine applied
    std::unique_ptr<core::Network> net;  // kept alive for custom queries
    double build_seconds = 0.0;          // fabric construction wall time
    core::Network::RunStatus status;
    double wall_seconds = 0.0;  // submission + run, on the guard's clock
  };

  // Applies the --threads/--engine overrides where `config` pins neither,
  // notes a changed shard count or engine, and builds the fabric.
  RunResult build(const std::string& label, const core::FabricConfig& config);

  // Runs opts.setup, submits `flows` and drives the network to
  // opts.horizon under a RunGuard with `guard`'s limits (none: identical
  // to run_to_completion). `recipe` supplies a checkpoint's labels and
  // scenario suite; drive() fills in the rest. SIGINT/SIGTERM meanwhile
  // exits 42 after a `PARTIAL RUN` note and a flushed report.
  void drive(RunResult& run, const std::vector<workload::FlowSpec>& flows,
             const RunOptions& opts, RunGuardOptions guard = {},
             RunRecipe recipe = {});

  // build() then drive() with no limits.
  RunResult run(const std::string& label, const core::FabricConfig& config,
                const std::vector<workload::FlowSpec>& flows,
                const RunOptions& opts);

  // Standard per-bucket FCT rows into table "fct":
  //   fabric, load_pct, bucket, flows, p50_us, p99_us.
  void emit_fct_rows(const std::string& label, double load_pct,
                     const core::Network& net);

  // A declarative figure: for each load (outer) and fabric (inner), run
  // `make_flows(load)` and emit the standard FCT rows.
  struct FabricSpec {
    std::string label;
    core::FabricConfig config;
  };
  struct FctSweep {
    std::vector<FabricSpec> fabrics;
    std::vector<double> loads;  // fraction of aggregate host bandwidth
    std::function<std::vector<workload::FlowSpec>(double load)> make_flows;
    sim::Time horizon;
  };
  void run_fct_sweep(const FctSweep& sweep);

 private:
  CliOptions opts_;
  Report report_;
  int noted_threads_ = -1;  // last `# threads=` note value; -1 = none yet
  // Last `# engine=` note value; packet runs (the default) emit none.
  core::EngineKind noted_engine_ = core::EngineKind::kPacket;
};

}  // namespace opera::exp
