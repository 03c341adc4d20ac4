#include "exp/run_guard.h"

#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "exp/output.h"
#include "exp/scenario.h"

namespace opera::exp {

namespace {

// Signal flag, async-signal-safe. A second signal while the first is
// still being handled means "stop NOW": skip the graceful path entirely.
volatile std::sig_atomic_t g_signal = 0;

extern "C" void guard_signal_handler(int sig) {
  if (g_signal != 0) std::_Exit(128 + sig);
  g_signal = sig;
}

std::string u64_hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string i64_dec(std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  return buf;
}

// The guard tick equals run_to_completion's default check interval, so a
// guarded run's tick grid — and therefore its stop time and event count —
// is bit-identical to an unguarded run_to_completion(horizon).
constexpr sim::Time kGuardTick = sim::Time::us(500);

bool all_flows_done(const core::Network& net) {
  const auto& tracker = net.tracker();
  return tracker.registered() > 0 && tracker.completed() >= tracker.registered();
}

}  // namespace

std::uint64_t state_digest(const core::Network& net) {
  sim::Fingerprint fp;
  net.fingerprint(fp);
  return fp.digest();
}

sim::CheckpointData make_run_checkpoint(const RunRecipe& recipe,
                                        const core::Network& net) {
  sim::CheckpointData data;
  data.run.push_back({"run_label", recipe.run_label});
  data.run.push_back({"fabric_label", recipe.fabric_label});
  {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", recipe.load_pct);
    data.run.push_back({"load_pct", buf});
  }
  data.run.push_back({"scenario", recipe.scenario});
  data.run.push_back({"horizon_ps", i64_dec(recipe.horizon.picoseconds())});
  data.config = core::serialize_fabric_config(recipe.config);
  data.flows.reserve(recipe.flows.size());
  for (const auto& f : recipe.flows) {
    data.flows.push_back(sim::CheckpointFlow{f.start.picoseconds(), f.src_host,
                                             f.dst_host, f.size_bytes});
  }
  data.state.push_back({"time_ps", i64_dec(net.sim().now().picoseconds())});
  data.state.push_back(
      {"events", i64_dec(static_cast<std::int64_t>(net.events_executed()))});
  data.state.push_back({"fingerprint", u64_hex(state_digest(net))});
  return data;
}

std::string recipe_from_checkpoint(const sim::CheckpointData& data,
                                   RunRecipe* recipe, sim::Time* resume_time,
                                   std::uint64_t* resume_digest) {
  *recipe = RunRecipe{};
  if (const auto* v = sim::find_entry(data.run, "run_label")) {
    recipe->run_label = *v;
  }
  if (const auto* v = sim::find_entry(data.run, "fabric_label")) {
    recipe->fabric_label = *v;
  }
  if (const auto* v = sim::find_entry(data.run, "load_pct")) {
    char* end = nullptr;
    recipe->load_pct = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0') return "malformed [run] load_pct";
  }
  if (const auto* v = sim::find_entry(data.run, "scenario")) {
    recipe->scenario = *v;
  }
  const auto* horizon = sim::find_entry(data.run, "horizon_ps");
  if (horizon == nullptr) return "checkpoint missing [run] horizon_ps";
  recipe->horizon = sim::Time::ps(std::strtoll(horizon->c_str(), nullptr, 10));

  if (std::string err = core::parse_fabric_config(data.config, &recipe->config);
      !err.empty()) {
    return err;
  }
  recipe->flows.reserve(data.flows.size());
  for (const auto& f : data.flows) {
    recipe->flows.push_back(workload::FlowSpec{
        f.src_host, f.dst_host, f.size_bytes, sim::Time::ps(f.start_ps)});
  }

  const auto* time_ps = sim::find_entry(data.state, "time_ps");
  if (time_ps == nullptr) return "checkpoint missing [state] time_ps";
  *resume_time = sim::Time::ps(std::strtoll(time_ps->c_str(), nullptr, 10));
  const auto* digest = sim::find_entry(data.state, "fingerprint");
  if (digest == nullptr) return "checkpoint missing [state] fingerprint";
  char* end = nullptr;
  *resume_digest = std::strtoull(digest->c_str(), &end, 16);
  if (end == digest->c_str() || *end != '\0') {
    return "malformed [state] fingerprint";
  }
  return "";
}

std::unique_ptr<core::Network> rebuild_run(const RunRecipe& recipe) {
  std::vector<ScenarioSpec> suite;
  if (std::string err = load_scenarios(recipe.scenario, recipe.config, &suite);
      !err.empty()) {
    throw std::invalid_argument(err);
  }
  auto net = core::NetworkFactory::build(recipe.config);
  for (const auto& spec : suite) arm_scenario(spec, *net);
  for (const auto& f : recipe.flows) {
    net->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  return net;
}

RunGuard::RunGuard(RunRecipe recipe, RunGuardOptions options)
    : recipe_(std::move(recipe)),
      options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {}

double RunGuard::wall_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

void RunGuard::guarded_exit(core::Network& net, int code, const char* reason) {
  if (!options_.checkpoint_path.empty()) {
    const auto data = make_run_checkpoint(recipe_, net);
    if (const std::string err =
            sim::save_checkpoint(options_.checkpoint_path, data);
        !err.empty()) {
      std::fprintf(stderr, "run-guard: checkpoint write failed: %s\n",
                   err.c_str());
    } else {
      std::fprintf(stderr,
                   "run-guard: %s at sim time %.3f ms; checkpoint written to "
                   "%s (resume with --resume)\n",
                   reason, net.sim().now().to_ms(),
                   options_.checkpoint_path.c_str());
    }
  } else {
    std::fprintf(stderr, "run-guard: %s at sim time %.3f ms (no checkpoint "
                 "path configured)\n",
                 reason, net.sim().now().to_ms());
  }
  if (options_.partial_report) options_.partial_report(reason, wall_seconds());
  // _Exit, not exit: the sharded engine's worker threads are parked at the
  // barrier and static destructor order is not worth racing against.
  std::fflush(nullptr);
  std::_Exit(code);
}

core::Network::RunStatus RunGuard::drive(core::Network& net) {
  // Catch SIGINT/SIGTERM for this run only; the previous handlers come
  // back when it returns.
  struct sigaction sa {}, old_int {}, old_term {};
  sa.sa_handler = guard_signal_handler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, &old_int);
  sigaction(SIGTERM, &sa, &old_term);
  bool replaying = options_.resume_time > sim::Time::zero();
  const bool periodic = options_.checkpoint_every > sim::Time::zero();
  // Cadence restarts from the resume point: the replayed prefix already
  // has its snapshots.
  sim::Time next_checkpoint =
      (replaying ? options_.resume_time : sim::Time::zero()) +
      options_.checkpoint_every;

  const auto hook = [&](core::Network& n) -> bool {
    // Done-check first, mirroring run_to_completion exactly: the guard
    // must stop at the same tick an unguarded run would.
    if (all_flows_done(n)) return true;
    const sim::Time now = n.sim().now();
    if (replaying) {
      if (now < options_.resume_time) return false;
      // The tick grid is identical on replay, so the first unsuppressed
      // tick lands exactly on the checkpoint's barrier. Verify the
      // multi-layer digest before trusting the replayed state.
      const std::uint64_t digest = state_digest(n);
      if (digest != options_.resume_digest) {
        std::fprintf(stderr,
                     "run-guard: FATAL: fingerprint mismatch at resume point "
                     "%.3f ms — checkpoint says %016" PRIx64
                     ", replay reached %016" PRIx64
                     " (differing binary, config drift, or nondeterminism)\n",
                     now.to_ms(), static_cast<std::uint64_t>(options_.resume_digest),
                     digest);
        std::fflush(nullptr);
        std::_Exit(1);
      }
      std::fprintf(stderr,
                   "run-guard: resumed at %.3f ms, fingerprint %016" PRIx64
                   " verified\n",
                   now.to_ms(), digest);
      replaying = false;
      return false;
    }
    if (g_signal != 0) {
      guarded_exit(n, kExitInterrupted,
                   g_signal == SIGINT ? "interrupted (SIGINT)"
                                      : "terminated (SIGTERM)");
    }
    if (options_.max_wall_s > 0 && wall_seconds() > options_.max_wall_s) {
      guarded_exit(n, kExitWallClock, "wall-clock watchdog expired");
    }
    if (options_.max_rss_bytes > 0 &&
        current_rss_bytes() > options_.max_rss_bytes) {
      if (n.degrade_memory()) {
        std::fprintf(stderr,
                     "run-guard: RSS %.1f MB over the %.1f MB limit; degraded "
                     "fabric memory (slice-table window shrink) and continuing\n",
                     current_rss_bytes() / 1e6, options_.max_rss_bytes / 1e6);
      } else {
        guarded_exit(n, kExitMemory,
                     "memory limit exceeded with nothing left to degrade");
      }
    }
    if (periodic && !options_.checkpoint_path.empty() &&
        now >= next_checkpoint) {
      const auto data = make_run_checkpoint(recipe_, n);
      if (const std::string err =
              sim::save_checkpoint(options_.checkpoint_path, data);
          !err.empty()) {
        std::fprintf(stderr, "run-guard: checkpoint write failed: %s\n",
                     err.c_str());
      }
      next_checkpoint = now + options_.checkpoint_every;
    }
    return false;
  };

  const auto status = net.run_with_progress(recipe_.horizon, kGuardTick, hook);
  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);
  return status;
}

}  // namespace opera::exp
