#include "core/fabric.h"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <cstdlib>

#include "sim/parse.h"

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

OperaConfig FabricConfig::opera_config() const {
  OperaConfig cfg;
  cfg.topology = opera;
  cfg.link = link;
  cfg.slice = slice;
  cfg.bulk_threshold_bytes = bulk_threshold_bytes;
  cfg.enable_vlb = enable_vlb;
  cfg.seed = seed;
  cfg.slice_table_window = slice_table_window;
  cfg.threads = threads;
  return cfg;
}

namespace {

// The shared knobs of the two static fabrics, folded over `structure`.
template <class Structure>
StaticNetConfig<Structure> static_config(const FabricConfig& config,
                                         const Structure& structure) {
  return {.structure = structure,
          .link = config.link,
          .bulk_threshold_bytes = config.bulk_threshold_bytes,
          .seed = config.seed,
          .threads = config.threads};
}

}  // namespace

ClosNetConfig FabricConfig::clos_config() const { return static_config(*this, clos); }

ExpanderNetConfig FabricConfig::expander_config() const {
  return static_config(*this, expander);
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
  // Without the packet core every flow waits for circuits (RotorLB).
  cfg.bulk_threshold_bytes = rotornet.hybrid ? bulk_threshold_bytes : 0;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

namespace {

// The [config] key table: one (key, field) pair per FabricConfig knob, in
// file order. Serialize and parse both walk it, so each key is named once.
// `Config` is `const FabricConfig` when writing, `FabricConfig` when
// reading.
template <class Config, class Fn>
void for_each_field(Config& c, Fn&& fn) {
  fn("kind", c.kind);
  fn("engine", c.engine);
  fn("opera.num_racks", c.opera.num_racks);
  fn("opera.num_switches", c.opera.num_switches);
  fn("opera.seed", c.opera.seed);
  fn("opera.hosts_per_rack", c.opera.hosts_per_rack);
  fn("clos.radix", c.clos.radix);
  fn("clos.oversubscription", c.clos.oversubscription);
  fn("clos.num_pods", c.clos.num_pods);
  fn("expander.num_tors", c.expander.num_tors);
  fn("expander.uplinks", c.expander.uplinks);
  fn("expander.hosts_per_tor", c.expander.hosts_per_tor);
  fn("expander.seed", c.expander.seed);
  fn("rotornet.num_racks", c.rotornet.num_racks);
  fn("rotornet.num_switches", c.rotornet.num_switches);
  fn("rotornet.hybrid", c.rotornet.hybrid);
  fn("rotornet.seed", c.rotornet.seed);
  fn("rotornet_hosts_per_rack", c.rotornet_hosts_per_rack);
  fn("link.rate_bps", c.link.rate_bps);
  fn("link.propagation_ps", c.link.propagation);
  fn("slice.duration_ps", c.slice.duration);
  fn("slice.reconfiguration_ps", c.slice.reconfiguration);
  fn("slice.guard_ps", c.slice.guard);
  fn("slice.drain_window_ps", c.slice.drain_window);
  fn("bulk_threshold_bytes", c.bulk_threshold_bytes);
  fn("enable_vlb", c.enable_vlb);
  fn("seed", c.seed);
  fn("slice_table_window", c.slice_table_window);
  fn("threads", c.threads);
}

// One codec per field type. Enums travel by name, bools as 0/1, integers
// in decimal, times as picoseconds, doubles as round-trip %.17g. A decode
// returns false on a malformed value (sim::parse_number's rule: an
// integer outside its field's range, a non-finite double), and reads the
// exact formats the encoders emit.
std::string encode(FabricKind v) { return fabric_kind_name(v); }
std::string encode(EngineKind v) { return engine_kind_name(v); }
std::string encode(bool v) { return v ? "1" : "0"; }
template <std::integral T>
std::string encode(T v) {
  return std::to_string(v);
}
std::string encode(sim::Time t) { return encode(t.picoseconds()); }
std::string encode(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool decode(const std::string& text, FabricKind* v) {
  const auto kind = parse_fabric_kind(text);
  if (kind) *v = *kind;
  return kind.has_value();
}

bool decode(const std::string& text, EngineKind* v) {
  const auto engine = parse_engine_kind(text);
  if (engine) *v = *engine;
  return engine.has_value();
}

template <class T>
  requires std::integral<T> || std::floating_point<T>
bool decode(const std::string& text, T* v) {
  return sim::parse_number(text, v);
}

bool decode(const std::string& text, bool* v) {
  int i = 0;
  if (!sim::parse_number(text, &i) || (i != 0 && i != 1)) return false;
  *v = i != 0;
  return true;
}

bool decode(const std::string& text, sim::Time* v) {
  std::int64_t ps = 0;
  if (!sim::parse_number(text, &ps)) return false;
  *v = sim::Time::ps(ps);
  return true;
}

}  // namespace

std::vector<sim::CheckpointEntry> serialize_fabric_config(
    const FabricConfig& config) {
  std::vector<sim::CheckpointEntry> out;
  for_each_field(config, [&out](const char* key, const auto& field) {
    out.push_back({key, encode(field)});
  });
  return out;
}

std::string parse_fabric_config(
    const std::vector<sim::CheckpointEntry>& entries, FabricConfig* out) {
  *out = FabricConfig{};
  for (const auto& entry : entries) {
    bool known = false;
    bool ok = false;
    for_each_field(*out, [&](const char* key, auto& field) {
      if (known || entry.key != key) return;
      known = true;
      ok = decode(entry.value, &field);
    });
    if (!known) {
      return "unknown [config] key '" + entry.key +
             "' (written by a newer schema, or a knob since removed?)";
    }
    if (!ok) {
      return "malformed value for [config] key '" + entry.key + "': '" +
             entry.value + "'";
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
