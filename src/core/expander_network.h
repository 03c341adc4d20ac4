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

namespace opera::core {

// Defaults: 130 ToRs x u=7 x d=5 (650 hosts).
using ExpanderNetConfig = StaticNetConfig<topo::ExpanderParams>;

// Shard placement: each ToR and its hosts in the rack's domain.
class ExpanderNetwork : public PacketFabric {
 public:
  explicit ExpanderNetwork(const ExpanderNetConfig& config);

  [[nodiscard]] const topo::ExpanderTopology& structure() const { return expander_; }
  [[nodiscard]] std::string describe() const override;

 private:
  void build();

  ExpanderNetConfig config_;
  topo::ExpanderTopology expander_;
  topo::EcmpTable routes_;
  // uplink_of_[a] maps neighbor rack -> uplink port index on ToR a.
  std::vector<std::vector<int>> uplink_of_;
};

}  // namespace opera::core
