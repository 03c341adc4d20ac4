// Declarative scenario engine (docs/SCENARIOS.md): parse `--scenario=`
// strings into specs, validate them against a fabric, describe them with
// stable golden strings, expand workload scenarios into flow lists, and
// arm failure scenarios as coordinator-phase global events on a built
// network — which is what keeps every storm/gray/skew run
// bit-identical across --threads=N.
//
// Grammar: a scenario string is `kind` or `kind:key=value,key=value,...`;
// several scenarios compose with ';' (at most one workload kind per
// suite). Kinds:
//
//   workload (pick one):
//     ditl             composed day-in-the-life (workload/day_in_the_life)
//     trace            replay a recorded trace (workload/trace_replay)
//     adversarial-perm rack permutation maximizing wait-for-direct-circuit
//   failure (any number):
//     storm-rolling    rotor switches fail one by one, then recover
//     storm-racks      correlated uplink outage + staggered recovery wave
//     gray             lossy-not-dead links (loss + extra latency)
//     skew             one rotor's reconfigurations settle late
//
// Every key has a default; unknown keys and kinds are parse errors, so a
// typo'd scenario fails the run instead of silently running the default.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "sim/time.h"
#include "workload/synthetic.h"

namespace opera::exp {

enum class ScenarioKind : std::uint8_t {
  kDitl,
  kTrace,
  kAdversarialPerm,
  kStormRolling,
  kStormRacks,
  kGray,
  kSkew,
};

// Stable name used in the grammar and in describe() ("ditl", "trace",
// "adversarial-perm", "storm-rolling", "storm-racks", "gray", "skew").
[[nodiscard]] const char* scenario_kind_name(ScenarioKind kind);

// One parsed scenario. Fields are grouped by the kinds that read them;
// everything else keeps its default. Times are milliseconds of sim time
// (the grammar's `-ms` keys) to match the bench CLI's existing units.
struct ScenarioSpec {
  ScenarioKind kind = ScenarioKind::kDitl;

  // ditl: 5 standard phases (datamining ramp, websearch, incast, storage,
  // ml) of phase_ms each, peaking at `load`.
  double phase_ms = 2.0;   // ditl
  double load = 0.25;      // ditl: peak offered load
  std::uint64_t seed = 3;  // ditl: composition; gray: link choice

  std::string path;  // trace: file to replay (.csv -> CSV, else binary)

  std::int64_t flow_kb = 600;  // adversarial-perm: per-pair flow size

  // storm-rolling: `switches` rotor switches fail, one every period_ms,
  // starting at start_ms; each recovers recover_ms after its own failure
  // (0 = stays down). storm-racks: `racks` racks lose uplink
  // `rotor_switch` simultaneously at start_ms; rack i recovers at
  // start_ms + recover_ms + i * wave_ms.
  int switches = 2;          // storm-rolling
  int racks = 4;             // storm-racks
  int rotor_switch = 0;      // storm-racks: shared uplink; skew: the rotor
  double start_ms = 1.0;     // storms/gray/skew: first event time
  double period_ms = 5.0;    // storm-rolling: failure spacing
  double recover_ms = 12.0;  // storms/gray: downtime (0 = no recovery)
  double wave_ms = 1.0;      // storm-racks: recovery stagger
  bool partitionable = false;  // storms: allow killing a rack's last uplink

  // gray: `links` (rack, switch) uplinks chosen by `seed` drop packets
  // with probability `loss` and delay survivors by extra_us.
  int links = 8;
  double loss = 0.02;
  double extra_us = 30.0;  // gray: added latency; skew: settle lateness

  int skew_slices = 64;  // skew: reconfigurations affected
};

struct ScenarioParseResult {
  std::vector<ScenarioSpec> specs;
  std::string error;  // empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

// Parses one scenario (`kind:key=value,...`).
[[nodiscard]] ScenarioParseResult parse_scenario(const std::string& text);
// Parses a ';'-separated suite; rejects more than one workload scenario.
[[nodiscard]] ScenarioParseResult parse_scenarios(const std::string& text);

// True for the kinds that produce flows (ditl/trace/adversarial-perm).
[[nodiscard]] bool scenario_is_workload(const ScenarioSpec& spec);

// One-line human description. These strings are golden-tested
// (tests/test_scenario_specs.cc) so CLI docs cannot silently drift.
[[nodiscard]] std::string describe(const ScenarioSpec& spec);

// Checks the spec against a concrete fabric: parameter ranges, fabric
// kind (failure scenarios and adversarial-perm need Opera), engine
// (gray/skew need the packet engine), skew timing
// against the slice clock, and the last-path property — a storm must
// never take down a rack's last live uplink, even transiently, unless
// declared `partitionable=1` (replayed on the abstract fail/recover
// timeline, so it holds for every interleaving). Returns "" when valid.
[[nodiscard]] std::string validate_scenario(const ScenarioSpec& spec,
                                            const core::FabricConfig& config);

// Parses the suite string `text` ("" = no scenarios) into `specs` and
// validates each against `config`. Returns "" when all is well, else the
// parse error or "invalid scenario — <reason>".
[[nodiscard]] std::string load_scenarios(const std::string& text,
                                         const core::FabricConfig& config,
                                         std::vector<ScenarioSpec>* specs);

// Expands a workload scenario into a time-sorted flow list for `config`.
// Trace load errors are reported through `error` (untouched on success).
[[nodiscard]] std::vector<workload::FlowSpec> scenario_flows(
    const ScenarioSpec& spec, const core::FabricConfig& config,
    std::string* error = nullptr);

// Schedules a failure scenario's events on the *global* (coordinator)
// queue of the packet, fluid or hybrid engine behind `net`. Call after
// construction, before run — e.g. from Experiment::RunOptions::setup.
// Storms land on whichever engine(s) the run uses — a hybrid run mirrors
// the same failure timeline onto both planes, each on its own coordinator
// queue, so short and bulk flows see one consistent outage. Gray/skew
// scenarios model packet-level degradation the fluid integrator cannot
// express; validate_scenario rejects them for non-packet engines, and
// reaching here anyway is a loud fatal error. No-op for workload
// scenarios and for fabrics without failure injection.
void arm_scenario(const ScenarioSpec& spec, core::Network& net);

// The schedule-adversarial permutation behind `adversarial-perm`: for
// every rack pair, the wait (in slices, from slice 0) until the first
// direct circuit; a greedy max-total-wait derangement of racks; host i of
// each rack sends `flow_bytes` to host i of its partner. Exposed for
// tests.
[[nodiscard]] std::vector<workload::FlowSpec> adversarial_permutation_workload(
    const topo::OperaTopology& topo, std::int32_t hosts_per_rack,
    std::int64_t flow_bytes);

}  // namespace opera::exp
