// exp::RunGuard — the one run driver (every exp::Experiment::drive goes
// through it) and its supervision: periodic deterministic checkpoints,
// SIGINT/SIGTERM graceful shutdown, a wall-clock watchdog, and
// memory-pressure degradation. With no limits set it only watches for
// signals.
//
// A guarded run is driven by ONE Network::run_with_progress call whose
// hook multiplexes the early-stop predicate (identical to
// run_to_completion's), the guard checks, and — on resume — the
// replay-then-verify protocol. The tick interval equals
// run_to_completion's default, so a guarded run's tick grid, stop time
// and events_executed are bit-identical to an unguarded one; every guard
// action either only does I/O (checkpoint writes), is content-neutral
// (slice-window shrink; see SliceWindowParity), or terminates the
// process. That is the whole determinism argument: guarding a run never
// changes a byte of its simulation output.
//
// Resume rebuilds the fabric from the checkpoint's serialized
// FabricConfig, re-arms the scenario suite, resubmits the recorded flow
// list, and replays deterministically from time 0 to the checkpoint time
// T with guard actions suppressed; at exactly T it recomputes the
// multi-layer fingerprint and fatals loudly on mismatch, then continues
// with guard actions live. Replay makes `run_until(horizon)` after
// restore bit-identical to the uninterrupted run at any --threads=N —
// crash-recovery buys correctness, not wall-clock (docs/CHECKPOINT.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "sim/checkpoint.h"
#include "sim/time.h"
#include "workload/synthetic.h"

namespace opera::exp {

// Everything needed to reproduce a run from scratch: the full fabric
// config, the flow list in submission order (flow ids are assigned in
// submission order, so replaying it verbatim reproduces them), the
// scenario suite, the horizon, and the driver labels that format the
// report. Serialized into the checkpoint's [run]/[config]/[flows]
// sections.
// checkpoint:v1 fields=7
struct RunRecipe {
  std::string run_label;     // run-table workload label
  std::string fabric_label;  // fct-table fabric label
  double load_pct = 0.0;     // fct-table load column
  std::string scenario;      // --scenario suite string ("" = none)
  core::FabricConfig config;
  std::vector<workload::FlowSpec> flows;  // submission order
  sim::Time horizon;
};

// The multi-layer fingerprint digest of `net`'s state (Network::fingerprint)
// — what checkpoints record and resume verifies.
[[nodiscard]] std::uint64_t state_digest(const core::Network& net);

// Builds the checkpoint for `recipe` at the network's current
// barrier-aligned time (call only from a progress-hook / coordinator
// event). [state] carries the progress marker: time_ps, events, and the
// chained multi-layer fingerprint digest.
[[nodiscard]] sim::CheckpointData make_run_checkpoint(
    const RunRecipe& recipe, const core::Network& net);

// Inverse of make_run_checkpoint's recipe half: reconstructs the recipe
// and the progress marker from a parsed checkpoint. Returns "" on
// success, an error message otherwise.
[[nodiscard]] std::string recipe_from_checkpoint(
    const sim::CheckpointData& data, RunRecipe* recipe,
    sim::Time* resume_time, std::uint64_t* resume_digest);

// The resume rebuild: the fabric from recipe.config with its scenario
// suite armed and its flows resubmitted in recorded order, ready to replay
// from time zero. Throws std::invalid_argument on an invalid suite.
[[nodiscard]] std::unique_ptr<core::Network> rebuild_run(const RunRecipe& recipe);

struct RunGuardOptions {
  // Simulated-time checkpoint cadence; zero disables periodic snapshots.
  sim::Time checkpoint_every;
  // Where snapshots land (tmp+rename atomic, so the previous checkpoint
  // survives a crash mid-write). Required for checkpoints and for the
  // signal/watchdog exit paths to leave one behind.
  std::string checkpoint_path;
  // Wall-clock watchdog: exit kExitWallClock after this many seconds
  // (checkpoint + partial report first). 0 disables.
  double max_wall_s = 0.0;
  // Memory guard: above this RSS, ask the fabric to degrade_memory();
  // when nothing is left to give back, exit kExitMemory (checkpoint +
  // partial report first). 0 disables.
  std::size_t max_rss_bytes = 0;
  // Resume state (zero time = fresh run): replay to `resume_time` with
  // guard actions suppressed, verify `resume_digest` there.
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  // Called on every guarded exit, after the checkpoint is written and
  // before _Exit: flush a partial report naming `reason` (and wall_s).
  std::function<void(const char* reason, double wall_s)> partial_report;
};

class RunGuard {
 public:
  // Distinct exit codes so harnesses can tell a guarded exit from a
  // crash: interrupted (SIGINT/SIGTERM), wall-clock watchdog, memory.
  static constexpr int kExitInterrupted = 42;
  static constexpr int kExitWallClock = 43;
  static constexpr int kExitMemory = 44;

  // Starts the run clock. Beyond its horizon, `recipe` only feeds
  // checkpoints: without a checkpoint_path its flow list may stay empty.
  RunGuard(RunRecipe recipe, RunGuardOptions options);

  // Drives `net` to the recipe horizon (early-stopping when all flows
  // complete) under the guard, with SIGINT/SIGTERM caught for the duration
  // of the call. Exits the process via _Exit on signal/
  // watchdog/memory-exhaustion; otherwise returns the run status, which
  // is bit-identical to run_to_completion(recipe.horizon) on `net`.
  core::Network::RunStatus drive(core::Network& net);

  // The run clock: wall seconds since construction.
  [[nodiscard]] double wall_seconds() const;

 private:
  void guarded_exit(core::Network& net, int code, const char* reason);

  RunRecipe recipe_;
  RunGuardOptions options_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace opera::exp
