// Packet-level RotorNet baseline (paper §5, Fig. 7c): rotor circuit
// switches that all reconfigure in unison, RotorLB for every flow. The
// hybrid variant donates one ToR uplink to an (idealized, non-blocking)
// packet-switched core that carries low-latency traffic with NDP — this
// favors the baseline, and is documented in DESIGN.md as a substitution.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/packet_fabric.h"
#include "net/switch.h"
#include "sim/rng.h"
#include "topo/rotornet.h"
#include "transport/ndp.h"
#include "transport/rotorlb.h"

namespace opera::core {

struct RotorNetConfig {
  topo::RotorNetParams structure;  // defaults: 108 racks, 6 switches
  int hosts_per_rack = 6;
  LinkParams link;
  SliceParams slice;
  transport::NdpConfig ndp;
  // Hybrid only: flows at or above this size wait for circuits (RotorLB);
  // smaller ones take the packet core. Non-hybrid RotorNet sends all
  // inter-rack traffic as bulk.
  std::int64_t bulk_threshold_bytes = 15'000'000;
  std::uint64_t seed = 42;  // bulk grant order
  int threads = 0;          // shard count (see PacketFabric); 0 = auto

  [[nodiscard]] net::PortQueue::Config tor_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 24'000;
    q.control_capacity_bytes = 24'000;
    q.bulk_capacity_bytes = 2 * slice_bulk_budget();
    q.trim_low_latency = true;
    q.trim_bulk = false;
    return q;
  }
  [[nodiscard]] net::PortQueue::Config host_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 4'000'000;
    q.control_capacity_bytes = 1'000'000;
    q.bulk_capacity_bytes = 4 * slice_bulk_budget();
    q.trim_low_latency = false;
    q.trim_bulk = false;
    return q;
  }
  // All rotors blink together: only (slice - reconfiguration - guard) is
  // usable per slice, unlike Opera's staggered design.
  [[nodiscard]] std::int64_t slice_bulk_budget() const {
    const sim::Time usable = slice.duration - slice.reconfiguration - slice.guard;
    return static_cast<std::int64_t>(usable.to_seconds() * link.rate_bps / 8.0);
  }
};

// Shard placement: each ToR and its hosts in the rack's domain, the hybrid
// packet core on shard 0. Slice boundaries and bulk grants run on the
// coordinator queue.
class RotorNetNetwork : public PacketFabric {
 public:
  explicit RotorNetNetwork(const RotorNetConfig& config);

  [[nodiscard]] const RotorNetConfig& config() const { return config_; }
  [[nodiscard]] std::string describe() const override;

 private:
  // Non-hybrid: every flow is bulk (RotorLB). Hybrid: flows are NDP
  // low-latency through the packet core unless bulk-classified.
  [[nodiscard]] net::TrafficClass classify(std::int64_t size_bytes) const override;
  void build();
  void on_slice_boundary(std::int64_t abs_slice);
  void allocate_bulk(int slice);
  // Out-of-band RotorLB loss notification for a bulk data packet dropped
  // at `tor`: RotorNet has no always-on in-band path (all rotors blink
  // together), so the control plane tells the source agent directly,
  // one propagation delay later, in the source host's domain.
  void nack_source(net::Switch& tor, const net::Packet& pkt);
  [[nodiscard]] int uplink_port(int sw) const { return config_.hosts_per_rack + sw; }
  [[nodiscard]] int core_port() const {
    return config_.hosts_per_rack + topo_.num_rotor_switches();
  }
  [[nodiscard]] int uplink_to(int slice, std::int32_t rack, std::int32_t peer) const;

  RotorNetConfig config_;
  topo::RotorNetTopology topo_;
  sim::Rng rng_;  // coordinator-phase randomness only (bulk grant order)
  std::vector<net::Switch*> tors_;  // owned by the base
  std::vector<std::unique_ptr<transport::RotorRelayBuffer>> relays_;
  int current_slice_ = 0;
};

}  // namespace opera::core
