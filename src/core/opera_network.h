// OperaNetwork — the packet-level Opera fabric (the paper's §3-§4 system):
// hosts with NDP sources/sinks and RotorLB agents, ToR switches with
// per-slice forwarding state, and rotor circuit switches realized as
// retargetable ToR-to-ToR links driven by the slice schedule.
//
// It is also the RotorNet baseline (§5, Fig. 7c): the same rotor fabric
// without Opera's two ideas, i.e. the unison schedule and no expander
// plane (OperaConfig::schedule / low_latency, which FabricConfig's
// rotornet_config() sets). Everything else — relay buffers, RotorLB grants,
// the slice-boundary flush and settle — is shared.
//
// This is the library's primary public entry point:
//
//   core::OperaConfig cfg;                   // paper-scale defaults
//   cfg.topology.num_racks = 16; ...
//   core::OperaNetwork net(cfg);
//   net.submit_flow(src_host, dst_host, bytes, at);
//   net.run_until(sim::Time::ms(50));
//   net.tracker().fct_us(...);               // measurements
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/packet_fabric.h"
#include "net/switch.h"
#include "sim/rng.h"
#include "topo/opera_topology.h"
#include "topo/slice_table_cache.h"
#include "transport/rotorlb.h"

namespace opera::core {

class OperaNetwork : public PacketFabric {
 public:
  explicit OperaNetwork(const OperaConfig& config);
  ~OperaNetwork() override;

  [[nodiscard]] const OperaConfig& config() const { return config_; }
  [[nodiscard]] const topo::OperaTopology& topology() const { return topo_; }
  [[nodiscard]] net::Switch& tor(std::int32_t rack) {
    return *tors_[static_cast<std::size_t>(rack)];
  }
  [[nodiscard]] std::string describe() const override;

  // Slice index (within [0, num_slices)) active at time `t`.
  [[nodiscard]] int slice_at(sim::Time t) const;
  [[nodiscard]] int current_slice() const { return current_slice_; }
  // Slice whose tables low-latency forwarding uses at time `now` (advances
  // to the next slice inside the end-of-slice drain window; see config.h).
  // Forwarding passes the deciding ToR's shard-local clock.
  [[nodiscard]] int routing_slice(sim::Time now) const;
  [[nodiscard]] int routing_slice() const { return routing_slice(sim().now()); }

  // Aggregate drop/trim statistics across all ToR uplinks. `wire_drops`
  // counts packets lost to gray (lossy-not-dead) links.
  struct TorStats {
    std::uint64_t trims = 0;
    std::uint64_t drops = 0;
    std::uint64_t forward_drops = 0;
    std::uint64_t wire_drops = 0;
  };
  [[nodiscard]] TorStats tor_stats() const;

  // Runtime fault injection (paper §3.6.2): the failed component stops
  // carrying traffic immediately; every ToR learns of the failure and
  // recomputes its tables one full cycle later (the hello protocol
  // guarantees dissemination within at most two cycles — we model the
  // typical one). Until then, packets that would use the failed component
  // are dropped and recovered by the transports.
  //
  // All injection/recovery entry points mutate global fabric state and must
  // run in the coordinator phase — call them from sim() (global) events,
  // never from shard-local callbacks, or the threads=N contract breaks.
  void inject_uplink_failure(std::int32_t rack, int rotor_switch);
  void inject_switch_failure(int rotor_switch);
  [[nodiscard]] const topo::FailureSet& failures() const { return failures_; }

  // Recovery waves: the component rejoins with the matching it should
  // currently hold; ToRs fold it back into their tables one cycle later
  // (the same hello-protocol delay as failure dissemination).
  void recover_uplink(std::int32_t rack, int rotor_switch);
  void recover_switch(int rotor_switch);

  // Gray failure: the ToR's uplink transceiver on `rotor_switch` goes
  // lossy-not-dead — egress packets are dropped with probability `loss`
  // and survivors see `extra_latency` added one-way. The degradation
  // follows the port across slice retargets (it models the rack's optics,
  // not one circuit) and is invisible to routing: tables still use the
  // link, which is exactly why gray failures hurt (see docs/SCENARIOS.md).
  void inject_gray_uplink(std::int32_t rack, int rotor_switch, double loss,
                          sim::Time extra_latency);
  void clear_gray_uplink(std::int32_t rack, int rotor_switch);

  // Rotor desync: `rotor_switch`'s next `count` reconfigurations settle
  // `extra` late (on top of OperaConfig::slice.reconfiguration). While
  // late, next-slice tables already route into the still-dark uplinks —
  // the low-latency drain-window rule (§4.1) assumes punctual rotors, so
  // skew converts cleanly into measurable drops + FCT inflation. Requires
  // 0 <= extra, and extra + reconfiguration < slice duration.
  void inject_slice_skew(int rotor_switch, sim::Time extra, int count);

  // The per-slice low-latency table store (paper §4.3). Eager (all N
  // tables precomputed) or a window from the current slice on,
  // per OperaConfig::slice_table_window; see topo/slice_table_cache.h.
  [[nodiscard]] const topo::SliceTableCache& slice_tables() const {
    return slice_tables_;
  }

  // relay_reach()[r][dst]: rack r has a live direct circuit to dst in some
  // slice, by the failure set of the last reconvergence (all true before
  // any). VLB picks only relays that can finish the second hop.
  [[nodiscard]] const std::vector<std::vector<bool>>& relay_reach() const {
    return relay_reach_;
  }

  // Structural memory of the sparse bulk VOQs (host agents + ToR relay
  // buffers) — the k=32 memory probe (see transport/sparse_voq.h).
  [[nodiscard]] std::size_t voq_memory_bytes() const;

  // Checkpoint hook: base digest (ports included) plus slice rotation
  // state, failure sets, the coordinator rng cursor and skew state —
  // everything partition-invariant.
  void fingerprint(sim::Fingerprint& fp) const override;

  // Memory-pressure degradation: halves the slice-table window (floor
  // topo::SliceTableCache::kMinWindow), keeping the slices from the
  // current one on. Content-neutral — window size is parity-tested to
  // never change output (SliceWindowParity).
  bool degrade_memory() override;

 private:
  // The ToR router of one low-latency plane, and the packet core's.
  template <LowLatencyPlane kPlane>
  class TorRouter;
  class CoreRouter;

  void build_nodes();
  // The failure set every circuit lookup passes: nullptr while nothing
  // has failed, so the lookups skip the failure bits. Rerun after every
  // change to failures_.
  void refresh_failures() { live_failures_ = failures_.any() ? &failures_ : nullptr; }
  void recompute_after_failure();
  // Points every ToR uplink to switches [first, last) at its live circuit
  // in `slice` (topo::OperaTopology::live_peer) and disables the uplinks
  // without one (reconfiguring, self-matched, failed at either end).
  void wire(int first, int last, int slice);
  // Recovery: re-wires `rotor_switch` onto the matching it holds now and
  // schedules the tables' reconvergence. A retargeting switch whose settle
  // is still pending is left to that settle; one whose settle already ran
  // is wired onto the settle slice, as the settle would have.
  void rejoin(int rotor_switch);
  void on_slice_boundary(std::int64_t abs_slice);
  void allocate_bulk(int slice);
  void install_forwarding();
  // The ToR forwarding rule under plane kPlane (TorRouter<kPlane>::route):
  // VLB relay traffic at its relay ToR is stored there (kConsumed);
  // low-latency traffic and control take the plane's path; bulk data
  // rides direct circuits only (§4.3's bulk table) on every plane.
  template <LowLatencyPlane kPlane>
  int forward(net::Switch& tor, net::PacketPtr& pkt);
  // RotorLB loss notification for a bulk data packet lost at `tor` (other
  // packets are ignored). The expander plane sends it in band; the RotorNet
  // planes have no always-on path (all rotors blink together), so the
  // control plane tells the source agent directly, one propagation delay
  // later, in the source host's domain.
  void nack(net::Switch& tor, const net::Packet& pkt);

  // Uplink port index on a ToR for rotor switch `sw`.
  [[nodiscard]] int uplink_port(int sw) const {
    return config_.topology.hosts_per_rack + sw;
  }
  // The ToR port to the packet core (LowLatencyPlane::kPacketCore only).
  [[nodiscard]] int core_port() const {
    return config_.topology.hosts_per_rack + config_.topology.num_switches;
  }

  OperaConfig config_;
  topo::OperaTopology topo_;
  sim::Rng rng_;  // coordinator-phase randomness only (bulk grant order)

  std::vector<net::Switch*> tors_;  // owned by the base
  std::vector<std::unique_ptr<transport::RotorRelayBuffer>> relays_;  // per ToR
  std::unique_ptr<net::Router> tor_router_;   // every ToR's
  std::unique_ptr<net::Router> core_router_;  // kPacketCore only

  // Per-slice low-latency ECMP tables (paper §4.3): eager or windowed.
  topo::SliceTableCache slice_tables_;
  topo::FailureSet failures_;
  const topo::FailureSet* live_failures_ = nullptr;  // see refresh_failures()
  // The failure set tables are built against: a snapshot of failures_
  // taken at each hello-protocol reconvergence (recompute_after_failure),
  // NOT the live set — a freshly injected failure must not leak into
  // windowed rebuilds before the ToRs have "learned" of it, or windowed
  // and eager runs would diverge. Only consulted once
  // route_around_failures_ is set.
  topo::FailureSet table_failures_;
  bool route_around_failures_ = false;
  std::vector<std::vector<bool>> relay_reach_;  // see relay_reach()

  int current_slice_ = 0;
  std::int64_t abs_slice_ = 0;
  // Set at each boundary, cleared when the retargeting switches settle.
  bool settle_pending_ = false;

  // Rotor desync state (inject_slice_skew): per-switch extra settle delay
  // and how many upcoming reconfigurations it still applies to.
  std::vector<sim::Time> skew_extra_;
  std::vector<int> skew_remaining_;
};

}  // namespace opera::core
