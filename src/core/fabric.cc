#include "core/fabric.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace opera::core {

const char* fabric_kind_name(FabricKind kind) {
  switch (kind) {
    case FabricKind::kOpera: return "opera";
    case FabricKind::kFoldedClos: return "clos";
    case FabricKind::kExpander: return "expander";
    case FabricKind::kRotorNet: return "rotornet";
  }
  return "unknown";
}

std::optional<FabricKind> parse_fabric_kind(std::string_view name) {
  if (name == "opera") return FabricKind::kOpera;
  if (name == "clos") return FabricKind::kFoldedClos;
  if (name == "expander") return FabricKind::kExpander;
  if (name == "rotornet") return FabricKind::kRotorNet;
  return std::nullopt;
}

const char* engine_kind_name(EngineKind engine) {
  switch (engine) {
    case EngineKind::kPacket: return "packet";
    case EngineKind::kFluid: return "fluid";
    case EngineKind::kHybrid: return "hybrid";
  }
  return "unknown";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) {
  if (name == "packet") return EngineKind::kPacket;
  if (name == "fluid") return EngineKind::kFluid;
  if (name == "hybrid") return EngineKind::kHybrid;
  return std::nullopt;
}

FabricConfig FabricConfig::make(FabricKind kind) {
  FabricConfig cfg;
  cfg.kind = kind;
  return cfg;  // structure defaults are already the paper-scale presets
}

FabricConfig& FabricConfig::scale(std::int32_t racks, std::int32_t hosts_per_rack) {
  const std::int32_t hosts = racks * hosts_per_rack;
  switch (kind) {
    case FabricKind::kOpera:
      // The paper's 1:1 ToR provisioning: u = d = k/2 rotor switches, and
      // the rack count must divide evenly among them.
      opera.num_switches = hosts_per_rack;
      opera.num_racks = ((racks + hosts_per_rack - 1) / hosts_per_rack) *
                        hosts_per_rack;
      opera.hosts_per_rack = hosts_per_rack;
      break;
    case FabricKind::kRotorNet: {
      rotornet.num_switches =
          rotornet.hybrid ? hosts_per_rack + 1 : hosts_per_rack;
      const int rotors = hosts_per_rack;  // rotor switches carrying circuits
      rotornet.num_racks = ((racks + rotors - 1) / rotors) * rotors;
      rotornet_hosts_per_rack = hosts_per_rack;
      break;
    }
    case FabricKind::kFoldedClos: {
      // Match the 1:1-provisioned Opera ToR radix (k = 2d) at this scale,
      // rounded up so radix splits integrally at the oversubscription
      // ratio; then size pods to cover at least the same host count
      // (capped at the radix-k maximum).
      const int split = clos.oversubscription + 1;
      clos.radix = ((std::max(2, 2 * hosts_per_rack) + split - 1) / split) * split;
      const int pod_hosts = (clos.radix / 2) * clos.hosts_per_tor();
      clos.num_pods = std::clamp((hosts + pod_hosts - 1) / pod_hosts, 2, clos.radix);
      break;
    }
    case FabricKind::kExpander: {
      // Trade one host port for one extra uplink at the same 1:1 ToR radix
      // (u = d + 2 > k/2, the paper's u=7/d=5 against Opera's 6/6), then
      // size the ToR count to cover the same host count.
      expander.hosts_per_tor = std::max(1, hosts_per_rack - 1);
      expander.uplinks = hosts_per_rack + 1;
      expander.num_tors = (hosts + expander.hosts_per_tor - 1) / expander.hosts_per_tor;
      // A u-regular graph needs an even degree sum.
      if ((expander.num_tors * expander.uplinks) % 2 != 0) ++expander.num_tors;
      break;
    }
  }
  return *this;
}

std::int32_t FabricConfig::num_hosts() const {
  switch (kind) {
    case FabricKind::kOpera:
      return static_cast<std::int32_t>(opera.num_hosts());
    case FabricKind::kFoldedClos:
      return clos.num_tors() * clos.hosts_per_tor();
    case FabricKind::kExpander:
      return static_cast<std::int32_t>(expander.num_hosts());
    case FabricKind::kRotorNet:
      return static_cast<std::int32_t>(rotornet.num_racks) * rotornet_hosts_per_rack;
  }
  return 0;
}

std::int32_t FabricConfig::num_racks() const {
  switch (kind) {
    case FabricKind::kOpera:
      return static_cast<std::int32_t>(opera.num_racks);
    case FabricKind::kFoldedClos:
      return clos.num_tors();
    case FabricKind::kExpander:
      return static_cast<std::int32_t>(expander.num_tors);
    case FabricKind::kRotorNet:
      return static_cast<std::int32_t>(rotornet.num_racks);
  }
  return 0;
}

std::string FabricConfig::describe() const {
  char buf[128];
  switch (kind) {
    case FabricKind::kOpera:
      std::snprintf(buf, sizeof buf, "Opera (%d racks x %d hosts, %d rotors)",
                    static_cast<int>(opera.num_racks), opera.hosts_per_rack,
                    opera.num_switches);
      break;
    case FabricKind::kFoldedClos:
      std::snprintf(buf, sizeof buf, "%d:1 folded Clos (k=%d, %d hosts)",
                    clos.oversubscription, clos.radix, num_hosts());
      break;
    case FabricKind::kExpander:
      std::snprintf(buf, sizeof buf, "static expander (%d ToRs, u=%d, d=%d)",
                    static_cast<int>(expander.num_tors), expander.uplinks,
                    expander.hosts_per_tor);
      break;
    case FabricKind::kRotorNet:
      std::snprintf(buf, sizeof buf, "RotorNet%s (%d racks x %d hosts, %d switches)",
                    rotornet.hybrid ? " hybrid" : "",
                    static_cast<int>(rotornet.num_racks), rotornet_hosts_per_rack,
                    rotornet.num_switches);
      break;
    default:
      std::snprintf(buf, sizeof buf, "unknown fabric");
  }
  return buf;
}

OperaConfig FabricConfig::opera_config() const {
  OperaConfig cfg;
  cfg.topology = opera;
  cfg.link = link;
  cfg.slice = slice;
  cfg.ndp = ndp;
  cfg.bulk_threshold_bytes = bulk_threshold_bytes;
  cfg.enable_vlb = enable_vlb;
  cfg.seed = seed;
  cfg.slice_table_window = slice_table_window;
  cfg.slice_table_budget_bytes = slice_table_budget_bytes;
  cfg.threads = threads;
  return cfg;
}

ClosNetConfig FabricConfig::clos_config() const {
  ClosNetConfig cfg;
  cfg.structure = clos;
  cfg.link = link;
  cfg.ndp = ndp;
  cfg.bulk_threshold_bytes = bulk_threshold_bytes;
  cfg.priority_queueing = priority_queueing;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

ExpanderNetConfig FabricConfig::expander_config() const {
  ExpanderNetConfig cfg;
  cfg.structure = expander;
  cfg.link = link;
  cfg.ndp = ndp;
  cfg.bulk_threshold_bytes = bulk_threshold_bytes;
  cfg.priority_queueing = priority_queueing;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

OperaConfig FabricConfig::rotornet_config() const {
  OperaConfig cfg;
  cfg.topology = {.num_racks = rotornet.num_racks,
                  .num_switches = rotornet.num_switches - (rotornet.hybrid ? 1 : 0),
                  .seed = rotornet.seed,
                  .hosts_per_rack = rotornet_hosts_per_rack};
  cfg.schedule = topo::RotorSchedule::kUnison;
  cfg.low_latency = rotornet.hybrid ? LowLatencyPlane::kPacketCore
                                    : LowLatencyPlane::kDirectCircuit;
  cfg.link = link;
  cfg.slice = slice;
  cfg.ndp = ndp;
  // Without the packet core every flow waits for circuits (RotorLB).
  cfg.bulk_threshold_bytes = rotornet.hybrid ? bulk_threshold_bytes : 0;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

namespace {

// Serialization helpers: one key per FabricConfig knob. Times travel as
// picoseconds, doubles as round-trip %.17g, bools as 0/1.
void put_i64(std::vector<sim::CheckpointEntry>* out, const char* key,
             std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out->push_back({key, buf});
}

void put_u64(std::vector<sim::CheckpointEntry>* out, const char* key,
             std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out->push_back({key, buf});
}

void put_double(std::vector<sim::CheckpointEntry>* out, const char* key,
                double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out->push_back({key, buf});
}

void put_time(std::vector<sim::CheckpointEntry>* out, const char* key,
              sim::Time t) {
  put_i64(out, key, t.picoseconds());
}

// Parse-side: each setter returns false on a malformed value. Strtoll/
// strtod accept the exact formats the putters emit.
bool get_i64(const std::string& text, std::int64_t* v) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *v = parsed;
  return true;
}

bool get_u64(const std::string& text, std::uint64_t* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *v = parsed;
  return true;
}

bool get_double(const std::string& text, double* v) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *v = parsed;
  return true;
}

}  // namespace

std::vector<sim::CheckpointEntry> serialize_fabric_config(
    const FabricConfig& config) {
  std::vector<sim::CheckpointEntry> out;
  out.push_back({"kind", fabric_kind_name(config.kind)});
  out.push_back({"engine", engine_kind_name(config.engine)});
  put_i64(&out, "opera.num_racks", config.opera.num_racks);
  put_i64(&out, "opera.num_switches", config.opera.num_switches);
  put_u64(&out, "opera.seed", config.opera.seed);
  put_i64(&out, "opera.hosts_per_rack", config.opera.hosts_per_rack);
  put_i64(&out, "clos.radix", config.clos.radix);
  put_i64(&out, "clos.oversubscription", config.clos.oversubscription);
  put_i64(&out, "clos.num_pods", config.clos.num_pods);
  put_i64(&out, "expander.num_tors", config.expander.num_tors);
  put_i64(&out, "expander.uplinks", config.expander.uplinks);
  put_i64(&out, "expander.hosts_per_tor", config.expander.hosts_per_tor);
  put_u64(&out, "expander.seed", config.expander.seed);
  put_i64(&out, "rotornet.num_racks", config.rotornet.num_racks);
  put_i64(&out, "rotornet.num_switches", config.rotornet.num_switches);
  put_i64(&out, "rotornet.hybrid", config.rotornet.hybrid ? 1 : 0);
  put_u64(&out, "rotornet.seed", config.rotornet.seed);
  put_i64(&out, "rotornet_hosts_per_rack", config.rotornet_hosts_per_rack);
  put_double(&out, "link.rate_bps", config.link.rate_bps);
  put_time(&out, "link.propagation_ps", config.link.propagation);
  put_time(&out, "slice.duration_ps", config.slice.duration);
  put_time(&out, "slice.reconfiguration_ps", config.slice.reconfiguration);
  put_time(&out, "slice.guard_ps", config.slice.guard);
  put_time(&out, "slice.drain_window_ps", config.slice.drain_window);
  put_i64(&out, "ndp.initial_window_packets", config.ndp.initial_window_packets);
  put_time(&out, "ndp.fallback_rto_ps", config.ndp.fallback_rto);
  put_i64(&out, "bulk_threshold_bytes", config.bulk_threshold_bytes);
  put_i64(&out, "priority_queueing", config.priority_queueing ? 1 : 0);
  put_i64(&out, "enable_vlb", config.enable_vlb ? 1 : 0);
  put_u64(&out, "seed", config.seed);
  put_i64(&out, "slice_table_window", config.slice_table_window);
  put_u64(&out, "slice_table_budget_bytes", config.slice_table_budget_bytes);
  put_i64(&out, "threads", config.threads);
  return out;
}

std::string parse_fabric_config(
    const std::vector<sim::CheckpointEntry>& entries, FabricConfig* out) {
  *out = FabricConfig{};
  for (const auto& entry : entries) {
    const std::string& key = entry.key;
    const std::string& value = entry.value;
    bool ok = true;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    double d = 0;
    auto as_i32 = [&](std::int32_t* field) {
      ok = get_i64(value, &i);
      if (ok) *field = static_cast<std::int32_t>(i);
    };
    auto as_int = [&](int* field) {
      ok = get_i64(value, &i);
      if (ok) *field = static_cast<int>(i);
    };
    auto as_bool = [&](bool* field) {
      ok = get_i64(value, &i) && (i == 0 || i == 1);
      if (ok) *field = i != 0;
    };
    auto as_time = [&](sim::Time* field) {
      ok = get_i64(value, &i);
      if (ok) *field = sim::Time::ps(i);
    };
    if (key == "kind") {
      const auto kind = parse_fabric_kind(value);
      ok = kind.has_value();
      if (ok) out->kind = *kind;
    } else if (key == "engine") {
      const auto engine = parse_engine_kind(value);
      ok = engine.has_value();
      if (ok) out->engine = *engine;
    } else if (key == "opera.num_racks") {
      as_i32(&out->opera.num_racks);
    } else if (key == "opera.num_switches") {
      as_int(&out->opera.num_switches);
    } else if (key == "opera.seed") {
      ok = get_u64(value, &u);
      if (ok) out->opera.seed = u;
    } else if (key == "opera.hosts_per_rack") {
      as_int(&out->opera.hosts_per_rack);
    } else if (key == "clos.radix") {
      as_int(&out->clos.radix);
    } else if (key == "clos.oversubscription") {
      as_int(&out->clos.oversubscription);
    } else if (key == "clos.num_pods") {
      as_int(&out->clos.num_pods);
    } else if (key == "expander.num_tors") {
      as_i32(&out->expander.num_tors);
    } else if (key == "expander.uplinks") {
      as_int(&out->expander.uplinks);
    } else if (key == "expander.hosts_per_tor") {
      as_int(&out->expander.hosts_per_tor);
    } else if (key == "expander.seed") {
      ok = get_u64(value, &u);
      if (ok) out->expander.seed = u;
    } else if (key == "rotornet.num_racks") {
      as_i32(&out->rotornet.num_racks);
    } else if (key == "rotornet.num_switches") {
      as_int(&out->rotornet.num_switches);
    } else if (key == "rotornet.hybrid") {
      as_bool(&out->rotornet.hybrid);
    } else if (key == "rotornet.seed") {
      ok = get_u64(value, &u);
      if (ok) out->rotornet.seed = u;
    } else if (key == "rotornet_hosts_per_rack") {
      as_int(&out->rotornet_hosts_per_rack);
    } else if (key == "link.rate_bps") {
      ok = get_double(value, &d);
      if (ok) out->link.rate_bps = d;
    } else if (key == "link.propagation_ps") {
      as_time(&out->link.propagation);
    } else if (key == "slice.duration_ps") {
      as_time(&out->slice.duration);
    } else if (key == "slice.reconfiguration_ps") {
      as_time(&out->slice.reconfiguration);
    } else if (key == "slice.guard_ps") {
      as_time(&out->slice.guard);
    } else if (key == "slice.drain_window_ps") {
      as_time(&out->slice.drain_window);
    } else if (key == "ndp.initial_window_packets") {
      as_int(&out->ndp.initial_window_packets);
    } else if (key == "ndp.fallback_rto_ps") {
      as_time(&out->ndp.fallback_rto);
    } else if (key == "bulk_threshold_bytes") {
      ok = get_i64(value, &out->bulk_threshold_bytes);
    } else if (key == "priority_queueing") {
      as_bool(&out->priority_queueing);
    } else if (key == "enable_vlb") {
      as_bool(&out->enable_vlb);
    } else if (key == "seed") {
      ok = get_u64(value, &out->seed);
    } else if (key == "slice_table_window") {
      as_int(&out->slice_table_window);
    } else if (key == "slice_table_budget_bytes") {
      ok = get_u64(value, &u);
      if (ok) out->slice_table_budget_bytes = static_cast<std::size_t>(u);
    } else if (key == "threads") {
      as_int(&out->threads);
    } else {
      return "unknown [config] key '" + key +
             "' (written by a newer schema?)";
    }
    if (!ok) {
      return "malformed value for [config] key '" + key + "': '" + value + "'";
    }
  }
  return "";
}

namespace {

// Engine builder slots (fluid, hybrid). Written once at startup by
// fluid::register_fluid_engines(); no locking — registration precedes any
// concurrent build, and builds never mutate.
NetworkFactory::EngineBuilder g_engine_builders[2] = {nullptr, nullptr};

NetworkFactory::EngineBuilder* engine_slot(EngineKind engine) {
  switch (engine) {
    case EngineKind::kFluid: return &g_engine_builders[0];
    case EngineKind::kHybrid: return &g_engine_builders[1];
    case EngineKind::kPacket: break;
  }
  return nullptr;
}

}  // namespace

void NetworkFactory::register_engine(EngineKind engine, EngineBuilder builder) {
  EngineBuilder* slot = engine_slot(engine);
  if (slot != nullptr) *slot = builder;
}

std::unique_ptr<Network> NetworkFactory::build(const FabricConfig& config) {
  if (config.engine != EngineKind::kPacket) {
    const EngineBuilder* slot = engine_slot(config.engine);
    if (slot == nullptr || *slot == nullptr) {
      std::fprintf(stderr,
                   "NetworkFactory: engine '%s' has no registered builder — "
                   "call fluid::register_fluid_engines() first "
                   "(exp::Experiment does this automatically)\n",
                   engine_kind_name(config.engine));
      std::exit(2);
    }
    return (*slot)(config);
  }
  switch (config.kind) {
    case FabricKind::kOpera:
      return std::make_unique<OperaNetwork>(config.opera_config());
    case FabricKind::kFoldedClos:
      return std::make_unique<ClosNetwork>(config.clos_config());
    case FabricKind::kExpander:
      return std::make_unique<ExpanderNetwork>(config.expander_config());
    case FabricKind::kRotorNet:
      return std::make_unique<OperaNetwork>(config.rotornet_config());
  }
  return std::make_unique<OperaNetwork>(config.opera_config());
}

}  // namespace opera::core
