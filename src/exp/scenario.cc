#include "exp/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fluid/fluid_network.h"
#include "fluid/hybrid_network.h"
#include "sim/rng.h"
#include "workload/day_in_the_life.h"
#include "workload/trace_replay.h"

namespace opera::exp {

namespace {

// %g formatting so describe() strings stay free of trailing zeros
// ("2 ms", "0.25", "0.02") — they are golden-tested verbatim.
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

ScenarioParseResult parse_fail(std::string message) {
  ScenarioParseResult r;
  r.error = std::move(message);
  return r;
}

struct KeyValue {
  std::string key;
  std::string value;
};

bool parse_double_value(const std::string& v, double& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return end == v.c_str() + v.size();
}

bool parse_int_value(const std::string& v, long long& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  out = std::strtoll(v.c_str(), &end, 10);
  return end == v.c_str() + v.size();
}

// Applies one key=value to `spec`; returns "" or an error message. The
// per-kind key sets are disjoint from the grammar's point of view: a key
// another kind owns is as unknown as a typo.
std::string apply_key(ScenarioSpec& spec, const KeyValue& kv) {
  const auto bad_value = [&] {
    return "bad value '" + kv.value + "' for key '" + kv.key + "'";
  };
  const auto num = [&](double& field) -> std::string {
    return parse_double_value(kv.value, field) ? "" : bad_value();
  };
  const auto integer = [&](int& field) -> std::string {
    long long v = 0;
    if (!parse_int_value(kv.value, v)) return bad_value();
    field = static_cast<int>(v);
    return "";
  };
  switch (spec.kind) {
    case ScenarioKind::kDitl:
      if (kv.key == "phase-ms") return num(spec.phase_ms);
      if (kv.key == "load") return num(spec.load);
      if (kv.key == "seed") {
        long long v = 0;
        if (!parse_int_value(kv.value, v) || v < 0) return bad_value();
        spec.seed = static_cast<std::uint64_t>(v);
        return "";
      }
      break;
    case ScenarioKind::kTrace:
      if (kv.key == "path") {
        spec.path = kv.value;
        return "";
      }
      break;
    case ScenarioKind::kAdversarialPerm:
      if (kv.key == "flow-kb") {
        long long v = 0;
        if (!parse_int_value(kv.value, v)) return bad_value();
        spec.flow_kb = v;
        return "";
      }
      break;
    case ScenarioKind::kStormRolling:
      if (kv.key == "switches") return integer(spec.switches);
      if (kv.key == "start-ms") return num(spec.start_ms);
      if (kv.key == "period-ms") return num(spec.period_ms);
      if (kv.key == "recover-ms") return num(spec.recover_ms);
      if (kv.key == "partitionable") {
        spec.partitionable = kv.value == "1";
        return kv.value == "1" || kv.value == "0" ? "" : bad_value();
      }
      break;
    case ScenarioKind::kStormRacks:
      if (kv.key == "racks") return integer(spec.racks);
      if (kv.key == "switch") return integer(spec.rotor_switch);
      if (kv.key == "start-ms") return num(spec.start_ms);
      if (kv.key == "recover-ms") return num(spec.recover_ms);
      if (kv.key == "wave-ms") return num(spec.wave_ms);
      if (kv.key == "partitionable") {
        spec.partitionable = kv.value == "1";
        return kv.value == "1" || kv.value == "0" ? "" : bad_value();
      }
      break;
    case ScenarioKind::kGray:
      if (kv.key == "links") return integer(spec.links);
      if (kv.key == "loss") return num(spec.loss);
      if (kv.key == "extra-us") return num(spec.extra_us);
      if (kv.key == "start-ms") return num(spec.start_ms);
      if (kv.key == "recover-ms") return num(spec.recover_ms);
      if (kv.key == "seed") {
        long long v = 0;
        if (!parse_int_value(kv.value, v) || v < 0) return bad_value();
        spec.seed = static_cast<std::uint64_t>(v);
        return "";
      }
      break;
    case ScenarioKind::kSkew:
      if (kv.key == "switch") return integer(spec.rotor_switch);
      if (kv.key == "extra-us") return num(spec.extra_us);
      if (kv.key == "slices") return integer(spec.skew_slices);
      if (kv.key == "start-ms") return num(spec.start_ms);
      break;
  }
  return std::string("unknown key '") + kv.key + "' for scenario '" +
         scenario_kind_name(spec.kind) + "'";
}

// The abstract outage timeline of a storm: +1 when a component goes down,
// -1 when it recovers. Used by the last-path check.
struct OutageEvent {
  double time_ms;
  int delta;
};

}  // namespace

const char* scenario_kind_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kDitl: return "ditl";
    case ScenarioKind::kTrace: return "trace";
    case ScenarioKind::kAdversarialPerm: return "adversarial-perm";
    case ScenarioKind::kStormRolling: return "storm-rolling";
    case ScenarioKind::kStormRacks: return "storm-racks";
    case ScenarioKind::kGray: return "gray";
    case ScenarioKind::kSkew: return "skew";
  }
  return "?";
}

ScenarioParseResult parse_scenario(const std::string& text) {
  const std::size_t colon = text.find(':');
  const std::string kind_name = text.substr(0, colon);
  ScenarioSpec spec;
  bool found = false;
  for (const auto kind :
       {ScenarioKind::kDitl, ScenarioKind::kTrace, ScenarioKind::kAdversarialPerm,
        ScenarioKind::kStormRolling, ScenarioKind::kStormRacks, ScenarioKind::kGray,
        ScenarioKind::kSkew}) {
    if (kind_name == scenario_kind_name(kind)) {
      spec.kind = kind;
      found = true;
      break;
    }
  }
  if (!found) return parse_fail("unknown scenario kind '" + kind_name + "'");
  if (colon != std::string::npos) {
    std::size_t pos = colon + 1;
    while (pos <= text.size()) {
      const std::size_t comma = text.find(',', pos);
      const std::size_t end = comma == std::string::npos ? text.size() : comma;
      const std::string item = text.substr(pos, end - pos);
      const std::size_t eq = item.find('=');
      if (item.empty() || eq == std::string::npos || eq == 0) {
        return parse_fail("scenario '" + kind_name + "': expected key=value, got '" +
                          item + "'");
      }
      if (std::string err =
              apply_key(spec, {item.substr(0, eq), item.substr(eq + 1)});
          !err.empty()) {
        return parse_fail("scenario '" + kind_name + "': " + err);
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  if (spec.kind == ScenarioKind::kTrace && spec.path.empty()) {
    return parse_fail("scenario 'trace': required key 'path' missing");
  }
  ScenarioParseResult r;
  r.specs.push_back(std::move(spec));
  return r;
}

ScenarioParseResult parse_scenarios(const std::string& text) {
  ScenarioParseResult result;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::size_t end = semi == std::string::npos ? text.size() : semi;
    const std::string one = text.substr(pos, end - pos);
    if (!one.empty()) {
      ScenarioParseResult sub = parse_scenario(one);
      if (!sub.ok()) return sub;
      result.specs.push_back(std::move(sub.specs.front()));
    }
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  if (result.specs.empty()) return parse_fail("empty scenario string");
  int workloads = 0;
  for (const auto& s : result.specs) workloads += scenario_is_workload(s) ? 1 : 0;
  if (workloads > 1) {
    return parse_fail("at most one workload scenario (ditl/trace/adversarial-perm) "
                      "per suite");
  }
  return result;
}

bool scenario_is_workload(const ScenarioSpec& spec) {
  return spec.kind == ScenarioKind::kDitl || spec.kind == ScenarioKind::kTrace ||
         spec.kind == ScenarioKind::kAdversarialPerm;
}

std::string describe(const ScenarioSpec& spec) {
  switch (spec.kind) {
    case ScenarioKind::kDitl:
      return "ditl: standard day, 5 x " + fmt(spec.phase_ms) +
             " ms phases, peak load " + fmt(spec.load) + ", seed " +
             std::to_string(spec.seed);
    case ScenarioKind::kTrace:
      return "trace: replay '" + spec.path + "'";
    case ScenarioKind::kAdversarialPerm:
      return "adversarial-perm: max-wait rack permutation, " +
             std::to_string(spec.flow_kb) + " KB flows";
    case ScenarioKind::kStormRolling:
      return "storm-rolling: " + std::to_string(spec.switches) +
             " rotor outages from " + fmt(spec.start_ms) + " ms, one every " +
             fmt(spec.period_ms) + " ms, " +
             (spec.recover_ms > 0.0
                  ? "each recovering after " + fmt(spec.recover_ms) + " ms"
                  : "no recovery");
    case ScenarioKind::kStormRacks:
      return "storm-racks: uplink " + std::to_string(spec.rotor_switch) +
             " dark on " + std::to_string(spec.racks) + " racks at " +
             fmt(spec.start_ms) + " ms, " +
             (spec.recover_ms > 0.0
                  ? "recovery wave at " + fmt(spec.recover_ms) + " ms, stagger " +
                        fmt(spec.wave_ms) + " ms"
                  : "no recovery");
    case ScenarioKind::kGray:
      return "gray: " + std::to_string(spec.links) + " lossy uplinks, loss " +
             fmt(spec.loss) + ", +" + fmt(spec.extra_us) + " us latency, from " +
             fmt(spec.start_ms) + " ms, " +
             (spec.recover_ms > 0.0
                  ? "recovering after " + fmt(spec.recover_ms) + " ms"
                  : "no recovery") +
             ", seed " + std::to_string(spec.seed);
    case ScenarioKind::kSkew:
      return "skew: rotor " + std::to_string(spec.rotor_switch) + " settles +" +
             fmt(spec.extra_us) + " us late for " +
             std::to_string(spec.skew_slices) + " reconfigurations from " +
             fmt(spec.start_ms) + " ms";
  }
  return "?";
}

std::string validate_scenario(const ScenarioSpec& spec,
                              const core::FabricConfig& config) {
  const bool needs_opera = !scenario_is_workload(spec) ||
                           spec.kind == ScenarioKind::kAdversarialPerm;
  if (needs_opera && config.kind != core::FabricKind::kOpera) {
    return std::string(scenario_kind_name(spec.kind)) +
           ": requires the opera fabric";
  }
  // Gray loss and slice skew are packet-level degradations; the fluid
  // integrator has no per-packet loss or per-slice clock to perturb, so a
  // fluid or hybrid run would silently model only part of the scenario.
  if ((spec.kind == ScenarioKind::kGray || spec.kind == ScenarioKind::kSkew) &&
      config.engine != core::EngineKind::kPacket) {
    return std::string(scenario_kind_name(spec.kind)) +
           ": requires the packet engine (engine=" +
           core::engine_kind_name(config.engine) + " cannot mirror it)";
  }
  const std::int32_t n = config.opera.num_racks;
  const int u = config.opera.num_switches;
  switch (spec.kind) {
    case ScenarioKind::kDitl:
      if (spec.phase_ms <= 0.0) return "ditl: phase-ms must be > 0";
      if (spec.load <= 0.0 || spec.load > 1.0) return "ditl: load must be in (0, 1]";
      return "";
    case ScenarioKind::kTrace:
      return spec.path.empty() ? "trace: path missing" : "";
    case ScenarioKind::kAdversarialPerm:
      return spec.flow_kb <= 0 ? "adversarial-perm: flow-kb must be > 0" : "";
    case ScenarioKind::kStormRolling: {
      if (spec.switches < 1 || spec.switches > u) {
        return "storm-rolling: switches must be in [1, " + std::to_string(u) + "]";
      }
      if (spec.start_ms < 0.0 || spec.period_ms < 0.0 || spec.recover_ms < 0.0) {
        return "storm-rolling: times must be >= 0";
      }
      // Last-path property on the abstract timeline: count concurrently
      // dead rotor switches; all u dead partitions every rack. Failures
      // sort before recoveries at equal instants — a transient
      // all-switches-dark moment still counts.
      std::vector<OutageEvent> events;
      for (int i = 0; i < spec.switches; ++i) {
        const double down = spec.start_ms + i * spec.period_ms;
        events.push_back({down, +1});
        if (spec.recover_ms > 0.0) events.push_back({down + spec.recover_ms, -1});
      }
      std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
        return a.time_ms != b.time_ms ? a.time_ms < b.time_ms : a.delta > b.delta;
      });
      int down = 0;
      for (const auto& e : events) {
        down += e.delta;
        if (down >= u && !spec.partitionable) {
          return "storm-rolling: all " + std::to_string(u) +
                 " rotor switches down at " + fmt(e.time_ms) +
                 " ms kills every rack's last path (declare partitionable=1 to "
                 "allow)";
        }
      }
      return "";
    }
    case ScenarioKind::kStormRacks:
      if (spec.racks < 1 || spec.racks > n) {
        return "storm-racks: racks must be in [1, " + std::to_string(n) + "]";
      }
      if (spec.rotor_switch < 0 || spec.rotor_switch >= u) {
        return "storm-racks: switch must be in [0, " + std::to_string(u) + ")";
      }
      if (spec.start_ms < 0.0 || spec.recover_ms < 0.0 || spec.wave_ms < 0.0) {
        return "storm-racks: times must be >= 0";
      }
      // One dead uplink leaves u-1 live ones per affected rack — the last
      // path only dies when the fabric has a single rotor switch.
      if (u <= 1 && !spec.partitionable) {
        return "storm-racks: with u=1 the shared uplink is every rack's last "
               "path (declare partitionable=1 to allow)";
      }
      return "";
    case ScenarioKind::kGray:
      if (spec.links < 1 || spec.links > n * u) {
        return "gray: links must be in [1, " + std::to_string(n * u) + "]";
      }
      if (spec.loss < 0.0 || spec.loss > 1.0) return "gray: loss must be in [0, 1]";
      if (spec.extra_us < 0.0) return "gray: extra-us must be >= 0";
      if (spec.start_ms < 0.0 || spec.recover_ms < 0.0) {
        return "gray: times must be >= 0";
      }
      return "";
    case ScenarioKind::kSkew: {
      if (spec.rotor_switch < 0 || spec.rotor_switch >= u) {
        return "skew: switch must be in [0, " + std::to_string(u) + ")";
      }
      if (spec.skew_slices < 1) return "skew: slices must be >= 1";
      if (spec.extra_us < 0.0 || spec.start_ms < 0.0) {
        return "skew: times must be >= 0";
      }
      if (sim::Time::from_us(spec.extra_us) + config.slice.reconfiguration >=
          config.slice.duration) {
        return "skew: extra-us + reconfiguration must stay under the slice "
               "duration (" +
               fmt(config.slice.duration.to_us()) + " us)";
      }
      return "";
    }
  }
  return "";
}

std::string load_scenarios(const std::string& text,
                           const core::FabricConfig& config,
                           std::vector<ScenarioSpec>* specs) {
  specs->clear();
  if (text.empty()) return "";
  auto parsed = parse_scenarios(text);
  if (!parsed.ok()) return parsed.error;
  for (const auto& spec : parsed.specs) {
    if (std::string err = validate_scenario(spec, config); !err.empty()) {
      return "invalid scenario — " + err;
    }
  }
  *specs = std::move(parsed.specs);
  return "";
}

std::vector<workload::FlowSpec> scenario_flows(const ScenarioSpec& spec,
                                               const core::FabricConfig& config,
                                               std::string* error) {
  switch (spec.kind) {
    case ScenarioKind::kDitl: {
      const auto day = workload::DayInTheLifeSpec::standard_day(
          sim::Time::from_us(spec.phase_ms * 1000.0), spec.load, spec.seed);
      const std::int32_t hosts_per_rack =
          config.num_hosts() / std::max<std::int32_t>(1, config.num_racks());
      return workload::day_in_the_life_workload(day, config.num_hosts(),
                                                hosts_per_rack,
                                                config.link.rate_bps);
    }
    case ScenarioKind::kTrace: {
      auto loaded = workload::load_trace(spec.path, config.num_hosts());
      if (!loaded.ok()) {
        if (error != nullptr) *error = loaded.error;
        return {};
      }
      return std::move(loaded.flows);
    }
    case ScenarioKind::kAdversarialPerm: {
      const topo::OperaTopology topo(config.opera);
      return adversarial_permutation_workload(topo, config.opera.hosts_per_rack,
                                              spec.flow_kb * 1000);
    }
    default:
      return {};
  }
}

namespace {

// Storm (switch/uplink) events, shared between the packet and fluid
// engines — both expose the same inject/recover surface and config().
// Everything lands on `global` (the engine's coordinator queue): failure
// mutation at a barrier, never racing shard-local events.
template <typename Net>
void arm_storm_events(const ScenarioSpec& spec, Net& net,
                      sim::Simulator& global) {
  const auto at_ms = [](double ms) { return sim::Time::from_us(ms * 1000.0); };
  switch (spec.kind) {
    case ScenarioKind::kStormRolling: {
      const int u = net.config().topology.num_switches;
      for (int i = 0; i < spec.switches; ++i) {
        const int sw = i % u;
        const double down_ms = spec.start_ms + i * spec.period_ms;
        global.schedule_at(at_ms(down_ms),
                           [&net, sw] { net.inject_switch_failure(sw); });
        if (spec.recover_ms > 0.0) {
          global.schedule_at(at_ms(down_ms + spec.recover_ms),
                             [&net, sw] { net.recover_switch(sw); });
        }
      }
      break;
    }
    case ScenarioKind::kStormRacks: {
      const std::int32_t n = net.num_racks();
      const int sw = spec.rotor_switch;
      for (int i = 0; i < spec.racks; ++i) {
        // Spread the affected racks across the fabric (a rotor linecard
        // serves distant racks; correlation is the shared switch).
        const auto rack = static_cast<std::int32_t>(
            (static_cast<std::int64_t>(i) * n) / spec.racks);
        global.schedule_at(at_ms(spec.start_ms), [&net, rack, sw] {
          net.inject_uplink_failure(rack, sw);
        });
        if (spec.recover_ms > 0.0) {
          global.schedule_at(
              at_ms(spec.start_ms + spec.recover_ms + i * spec.wave_ms),
              [&net, rack, sw] { net.recover_uplink(rack, sw); });
        }
      }
      break;
    }
    default:
      break;
  }
}

void arm_packet(const ScenarioSpec& spec, core::OperaNetwork& net) {
  // Everything here lands on the coordinator's global queue: failure
  // mutation at a barrier, never racing shard-local packet events.
  sim::Simulator& global = net.sim();
  const auto at_ms = [](double ms) { return sim::Time::from_us(ms * 1000.0); };
  switch (spec.kind) {
    case ScenarioKind::kStormRolling:
    case ScenarioKind::kStormRacks:
      arm_storm_events(spec, net, global);
      break;
    case ScenarioKind::kGray: {
      const std::int32_t n = net.num_racks();
      const int u = net.config().topology.num_switches;
      sim::Rng rng(spec.seed);
      const auto picks = rng.sample_without_replacement(
          static_cast<std::size_t>(n) * static_cast<std::size_t>(u),
          static_cast<std::size_t>(spec.links));
      const double loss = spec.loss;
      const sim::Time extra = sim::Time::from_us(spec.extra_us);
      for (const std::size_t pick : picks) {
        const auto rack = static_cast<std::int32_t>(pick / static_cast<std::size_t>(u));
        const int sw = static_cast<int>(pick % static_cast<std::size_t>(u));
        global.schedule_at(at_ms(spec.start_ms), [&net, rack, sw, loss, extra] {
          net.inject_gray_uplink(rack, sw, loss, extra);
        });
        if (spec.recover_ms > 0.0) {
          global.schedule_at(at_ms(spec.start_ms + spec.recover_ms),
                             [&net, rack, sw] { net.clear_gray_uplink(rack, sw); });
        }
      }
      break;
    }
    case ScenarioKind::kSkew: {
      const int sw = spec.rotor_switch;
      const sim::Time extra = sim::Time::from_us(spec.extra_us);
      const int count = spec.skew_slices;
      global.schedule_at(at_ms(spec.start_ms), [&net, sw, extra, count] {
        net.inject_slice_skew(sw, extra, count);
      });
      break;
    }
    default:
      break;  // workload scenarios have nothing to arm
  }
}

}  // namespace

void arm_scenario(const ScenarioSpec& spec, core::Network& net) {
  if (scenario_is_workload(spec)) return;
  if (auto* packet = dynamic_cast<core::OperaNetwork*>(&net)) {
    arm_packet(spec, *packet);
    return;
  }
  const bool needs_packet =
      spec.kind == ScenarioKind::kGray || spec.kind == ScenarioKind::kSkew;
  if (auto* hybrid = dynamic_cast<fluid::HybridNetwork*>(&net)) {
    if (needs_packet) {
      std::fprintf(stderr,
                   "exp: scenario '%s' models packet-level degradation the "
                   "fluid plane cannot mirror; run it with --engine=packet\n",
                   scenario_kind_name(spec.kind));
      std::exit(2);
    }
    // Mirror the failure timeline onto both planes, each on its own
    // coordinator queue — the lockstep chunking keeps them aligned, so
    // short and bulk flows see one consistent outage.
    arm_storm_events(spec, hybrid->packet_net(), hybrid->packet_net().sim());
    arm_storm_events(spec, hybrid->fluid_net(), hybrid->fluid_net().sim());
    return;
  }
  if (auto* fl = dynamic_cast<fluid::FluidNetwork*>(&net)) {
    if (needs_packet) {
      std::fprintf(stderr,
                   "exp: scenario '%s' models packet-level degradation the "
                   "fluid engine cannot express; run it with --engine=packet\n",
                   scenario_kind_name(spec.kind));
      std::exit(2);
    }
    arm_storm_events(spec, *fl, fl->sim());
    return;
  }
  // Other fabrics expose no failure-injection surface; validate_scenario
  // already rejects failure scenarios for them.
}

std::vector<workload::FlowSpec> adversarial_permutation_workload(
    const topo::OperaTopology& topo, std::int32_t hosts_per_rack,
    std::int64_t flow_bytes) {
  const auto n = topo.num_racks();
  const int u = topo.num_switches();
  // wait[r][p]: slices until the first direct circuit r -> p, counting
  // from slice 0 (-1 until discovered; the one-factorization guarantees
  // every pair connects within one cycle).
  std::vector<std::vector<int>> wait(
      static_cast<std::size_t>(n), std::vector<int>(static_cast<std::size_t>(n), -1));
  for (topo::Vertex r = 0; r < n; ++r) {
    for (int s = 0; s < topo.num_slices(); ++s) {
      for (int sw = 0; sw < u; ++sw) {
        if (sw == topo.reconfiguring_switch(s)) continue;
        const topo::Vertex peer = topo.circuit_peer(sw, r, s);
        if (peer != r && wait[static_cast<std::size_t>(r)][static_cast<std::size_t>(peer)] < 0) {
          wait[static_cast<std::size_t>(r)][static_cast<std::size_t>(peer)] = s;
        }
      }
    }
  }
  // Greedy max-total-wait assignment: sort all ordered pairs by wait
  // descending (ties by rack ids, keeping the result deterministic) and
  // take each pair whose source and destination are still free. The only
  // way the pass leaves a source unassigned is the classic derangement
  // corner — the last free source's only free destination is itself —
  // patched up below by a swap with any earlier assignment.
  struct Pair {
    topo::Vertex src, dst;
    int wait;
  };
  std::vector<Pair> pairs;
  pairs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
  for (topo::Vertex r = 0; r < n; ++r) {
    for (topo::Vertex p = 0; p < n; ++p) {
      if (p == r) continue;
      pairs.push_back({r, p, wait[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)]});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.wait != b.wait) return a.wait > b.wait;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });
  std::vector<topo::Vertex> partner(static_cast<std::size_t>(n), -1);
  std::vector<bool> taken(static_cast<std::size_t>(n), false);
  std::int32_t assigned = 0;
  for (const auto& pr : pairs) {
    if (assigned == n) break;
    if (partner[static_cast<std::size_t>(pr.src)] >= 0 ||
        taken[static_cast<std::size_t>(pr.dst)]) {
      continue;
    }
    partner[static_cast<std::size_t>(pr.src)] = pr.dst;
    taken[static_cast<std::size_t>(pr.dst)] = true;
    ++assigned;
  }
  for (topo::Vertex r = 0; r < n && assigned < n; ++r) {
    if (partner[static_cast<std::size_t>(r)] >= 0) continue;
    // r's only free destination is r itself: steal another source's
    // partner (never r — nobody points at a free destination) and point
    // that source at r instead.
    const topo::Vertex q = r == 0 ? 1 : 0;
    partner[static_cast<std::size_t>(r)] = partner[static_cast<std::size_t>(q)];
    partner[static_cast<std::size_t>(q)] = r;
    taken[static_cast<std::size_t>(r)] = true;
    ++assigned;
  }
  std::vector<workload::FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(hosts_per_rack));
  for (topo::Vertex r = 0; r < n; ++r) {
    const topo::Vertex p = partner[static_cast<std::size_t>(r)];
    if (p < 0) continue;  // unreachable with n >= 2, kept for safety
    for (std::int32_t h = 0; h < hosts_per_rack; ++h) {
      workload::FlowSpec f;
      f.src_host = static_cast<std::int32_t>(r) * hosts_per_rack + h;
      f.dst_host = static_cast<std::int32_t>(p) * hosts_per_rack + h;
      f.size_bytes = flow_bytes;
      f.start = sim::Time::zero();
      flows.push_back(f);
    }
  }
  return flows;
}

}  // namespace opera::exp
