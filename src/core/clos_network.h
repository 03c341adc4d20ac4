// Packet-level 3-tier oversubscribed folded-Clos baseline (paper §5):
// NDP transport for all traffic, per-packet ECMP spraying, optional strict
// priority queueing of low-latency over bulk classes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/packet_fabric.h"
#include "net/switch.h"
#include "topo/folded_clos.h"
#include "transport/ndp.h"

namespace opera::core {

struct ClosNetConfig {
  topo::ClosParams structure;  // defaults: k=12, 3:1 -> 648 hosts
  LinkParams link;
  transport::NdpConfig ndp;
  std::int64_t bulk_threshold_bytes = 15'000'000;
  // With priority queueing, >=threshold flows ride the bulk band so short
  // flows never queue behind them (the paper's "ideal priority queuing"
  // comparison); without it all traffic shares one band.
  bool priority_queueing = true;
  std::uint64_t seed = 42;  // ECMP hash salt
  int threads = 0;          // shard count (see PacketFabric); 0 = auto

  [[nodiscard]] net::PortQueue::Config switch_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 12'000;  // NDP-shallow
    q.control_capacity_bytes = 24'000;
    q.bulk_capacity_bytes = 36'000;
    q.trim_low_latency = true;
    q.trim_bulk = true;  // bulk also runs NDP here
    return q;
  }
  [[nodiscard]] net::PortQueue::Config host_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 4'000'000;
    q.control_capacity_bytes = 1'000'000;
    q.bulk_capacity_bytes = 4'000'000;
    q.trim_low_latency = false;
    q.trim_bulk = false;
    return q;
  }
};

// Shard placement: each ToR and its hosts in the rack's domain, each
// aggregation switch on its pod's first rack's shard, cores round-robin.
class ClosNetwork : public PacketFabric {
 public:
  explicit ClosNetwork(const ClosNetConfig& config);

  [[nodiscard]] const topo::FoldedClos& structure() const { return clos_; }
  [[nodiscard]] std::string describe() const override;

 private:
  [[nodiscard]] net::TrafficClass classify(std::int64_t size_bytes) const override;
  void build();

  ClosNetConfig config_;
  topo::FoldedClos clos_;
};

}  // namespace opera::core
