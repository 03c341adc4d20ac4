// Packet-level 3-tier oversubscribed folded-Clos baseline (paper §5):
// NDP transport for all traffic, per-packet ECMP spraying, strict priority
// queueing of low-latency over bulk classes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/packet_fabric.h"
#include "net/switch.h"
#include "topo/folded_clos.h"

namespace opera::core {

// Defaults: k=12, 3:1 -> 648 hosts.
using ClosNetConfig = StaticNetConfig<topo::ClosParams>;

// Shard placement: each ToR and its hosts in the rack's domain, each
// aggregation switch on its pod's first rack's shard, cores round-robin.
class ClosNetwork : public PacketFabric {
 public:
  explicit ClosNetwork(const ClosNetConfig& config);

  [[nodiscard]] const topo::FoldedClos& structure() const { return clos_; }
  [[nodiscard]] std::string describe() const override;

 private:
  void build();

  ClosNetConfig config_;
  topo::FoldedClos clos_;
  std::vector<std::unique_ptr<net::Router>> routers_;  // ToR, agg, core tiers
};

}  // namespace opera::core
