// core::FabricConfig / core::NetworkFactory — one tagged configuration
// that can describe any of the four evaluated fabrics, and the factory
// that builds the matching core::Network.
//
// The per-fabric structure parameters (OperaParams, ClosParams, ...) keep
// their own types; FabricConfig adds the knobs every fabric shares (link
// rate, slice timing, bulk threshold, seeds) so an experiment can
// sweep fabrics without re-stating them:
//
//   auto cfg = core::FabricConfig::make(core::FabricKind::kOpera);
//   cfg.scale(16, 4);                       // laptop-scale testbed
//   auto net = core::NetworkFactory::build(cfg);
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/clos_network.h"
#include "core/config.h"
#include "core/expander_network.h"
#include "core/network.h"
#include "core/opera_network.h"
#include "sim/checkpoint.h"

namespace opera::core {

enum class FabricKind : std::uint8_t {
  kOpera,       // rotor switches with offset reconfiguration (the paper's system)
  kFoldedClos,  // 3-tier oversubscribed folded Clos (§5 baseline)
  kExpander,    // static random u-regular expander (§5 baseline)
  kRotorNet,    // synchronized rotor switches, optionally hybrid (§5 baseline);
                // built as OperaNetwork under the unison schedule
};

// Stable lower-case name ("opera", "clos", "expander", "rotornet").
[[nodiscard]] const char* fabric_kind_name(FabricKind kind);
[[nodiscard]] std::optional<FabricKind> parse_fabric_kind(std::string_view name);

// Which simulation engine executes the fabric (Opera only today):
//   kPacket — the packet-level event simulation (the parity oracle);
//   kFluid  — per-slice RotorLB rate integration (fluid::FluidNetwork),
//             flow granularity for million-flow, multi-second scenarios;
//   kHybrid — short/latency-sensitive flows on the packet engine, bulk
//             elephants on the fluid integrator, completions merged
//             (time, flow id)-canonically (fluid::HybridNetwork).
// The fluid engines live above core in the layer DAG, so they reach the
// factory through NetworkFactory::register_engine (see below).
enum class EngineKind : std::uint8_t { kPacket, kFluid, kHybrid };

// Stable lower-case name ("packet", "fluid", "hybrid").
[[nodiscard]] const char* engine_kind_name(EngineKind engine);
[[nodiscard]] std::optional<EngineKind> parse_engine_kind(std::string_view name);

// checkpoint:v1 fields=14
struct FabricConfig {
  FabricKind kind = FabricKind::kOpera;
  // Execution engine for `kind` (non-packet engines require kOpera).
  EngineKind engine = EngineKind::kPacket;

  // Structure of whichever fabric `kind` selects. Each carries its own
  // topology seed; only the selected one is consulted by the factory.
  topo::OperaParams opera;        // paper scale: 108 racks x 6 hosts, u=6
  topo::ClosParams clos;          // paper scale: k=12, 3:1 -> 648 hosts
  topo::ExpanderParams expander;  // paper scale: 130 ToRs, u=7, d=5
  topo::RotorNetParams rotornet;  // paper scale: 108 racks, 6 switches
  int rotornet_hosts_per_rack = 6;

  // Shared knobs, applied to the selected fabric on build.
  LinkParams link;
  SliceParams slice;  // rotor-based fabrics only
  // Flows at or above this size are bulk: RotorLB on the rotor fabrics,
  // the lower-priority band on the static ones.
  std::int64_t bulk_threshold_bytes = 15'000'000;
  bool enable_vlb = true;   // Opera: RotorLB two-hop fallback
  std::uint64_t seed = 42;  // network-level randomness: ECMP salt, grant order
  // Opera: resident per-slice routing tables (0 = auto-size from the
  // 16 MB budget; see OperaConfig::slice_table_window). CLI: --slice-window.
  int slice_table_window = 0;
  // Shard count for the sharded event loop every packet fabric runs on
  // (bit-identical output for any value; see PacketFabric). 0 = auto
  // ($OPERA_TEST_THREADS, else 1). CLI: --threads.
  int threads = 0;

  // Paper-scale defaults for `kind` (the structure defaults above).
  [[nodiscard]] static FabricConfig make(FabricKind kind);

  // Rescales the selected fabric to roughly `racks` x `hosts_per_rack`
  // hosts while keeping its character (1:1-provisioned ToR radix
  // k = 2 * hosts_per_rack throughout):
  //  * Opera / RotorNet: u = d = hosts_per_rack rotor switches, rack count
  //    rounded up so it divides evenly among them;
  //  * folded Clos: radix 2d rounded to split at the oversubscription
  //    ratio, pod count sized to cover the same host count;
  //  * expander: one host port traded for an extra uplink (u = d + 2 >
  //    k/2, the paper's u=7/d=5), ToR count sized to cover the same hosts.
  // The canonical cost-equivalent testbeds used by the figures live in
  // exp::Testbed; this helper is for ad-hoc scales (k=24 and beyond).
  FabricConfig& scale(std::int32_t racks, std::int32_t hosts_per_rack);

  // Host/rack counts the built network will report (no construction).
  [[nodiscard]] std::int32_t num_hosts() const;
  [[nodiscard]] std::int32_t num_racks() const;

  // Lowered per-fabric configs (shared knobs folded in).
  [[nodiscard]] OperaConfig opera_config() const;
  [[nodiscard]] ClosNetConfig clos_config() const;
  [[nodiscard]] ExpanderNetConfig expander_config() const;
  // RotorNet lowers to the Opera rotor fabric under the unison schedule,
  // its low-latency plane the packet core (hybrid) or the direct circuits.
  [[nodiscard]] OperaConfig rotornet_config() const;
};

class NetworkFactory {
 public:
  // Builds the fabric `config.kind` selects, on the engine `config.engine`
  // selects. Never returns null; a non-packet engine with no registered
  // builder is a loud fatal error (the fluid layer registers its engines
  // via fluid::register_fluid_engines(), which exp::Experiment calls
  // automatically — direct factory users with engine != packet must call
  // it themselves).
  [[nodiscard]] static std::unique_ptr<Network> build(const FabricConfig& config);

  // Engine builder registration (idempotent overwrite). core cannot link
  // the fluid layer — the layer DAG points the other way — so the fluid/
  // hybrid engines install themselves here at startup.
  using EngineBuilder = std::unique_ptr<Network> (*)(const FabricConfig&);
  static void register_engine(EngineKind engine, EngineBuilder builder);
};

// Checkpoint [config] section: every FabricConfig knob as a flat key/value
// list (times in picoseconds, doubles in round-trip %.17g). The schema's
// versioning rule: a key absent from the list leaves the struct default in
// place (so adding a knob with a back-compatible default needs no version
// bump), an *unknown* key is a hard error (newer writers are never
// silently misread). See docs/CHECKPOINT.md.
[[nodiscard]] std::vector<sim::CheckpointEntry> serialize_fabric_config(
    const FabricConfig& config);
// Inverse: applies `entries` over defaults. Returns "" on success, else a
// message naming the offending key.
[[nodiscard]] std::string parse_fabric_config(
    const std::vector<sim::CheckpointEntry>& entries, FabricConfig* out);

}  // namespace opera::core
