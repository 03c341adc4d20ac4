// Packet-level static-expander baseline (paper §5): ToR uplinks wired as a
// random u-regular graph, shortest-path ECMP with per-packet spraying, NDP
// transport for all traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/packet_fabric.h"
#include "topo/expander.h"
#include "transport/ndp.h"

namespace opera::core {

struct ExpanderNetConfig {
  topo::ExpanderParams structure;  // defaults: 130 ToRs x u=7 x d=5 (650 hosts)
  LinkParams link;
  transport::NdpConfig ndp;
  std::int64_t bulk_threshold_bytes = 15'000'000;
  bool priority_queueing = true;
  std::uint64_t seed = 42;  // ECMP hash salt
  int threads = 0;          // shard count (see PacketFabric); 0 = auto

  [[nodiscard]] net::PortQueue::Config switch_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 12'000;
    q.control_capacity_bytes = 24'000;
    q.bulk_capacity_bytes = 36'000;
    q.trim_low_latency = true;
    q.trim_bulk = true;
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

// Shard placement: each ToR and its hosts in the rack's domain.
class ExpanderNetwork : public PacketFabric {
 public:
  explicit ExpanderNetwork(const ExpanderNetConfig& config);

  [[nodiscard]] const topo::ExpanderTopology& structure() const { return expander_; }
  [[nodiscard]] std::string describe() const override;

 private:
  [[nodiscard]] net::TrafficClass classify(std::int64_t size_bytes) const override;
  void build();

  ExpanderNetConfig config_;
  topo::ExpanderTopology expander_;
  topo::EcmpTable routes_;
  // uplink_of_[a] maps neighbor rack -> uplink port index on ToR a.
  std::vector<std::vector<int>> uplink_of_;
};

}  // namespace opera::core
