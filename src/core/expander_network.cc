#include "core/expander_network.h"

#include <cstdio>
#include <vector>

#include "net/ecmp.h"

namespace opera::core {

ExpanderNetwork::ExpanderNetwork(const ExpanderNetConfig& config)
    : PacketFabric({.num_racks = config.structure.num_tors,
                    .hosts_per_rack = config.structure.hosts_per_tor,
                    .link = config.link,
                    .bulk_threshold_bytes = config.bulk_threshold_bytes,
                    .threads = config.threads,
                    .rotorlb_bulk = false}),
      config_(config),
      expander_(config.structure) {
  build();
}

void ExpanderNetwork::build() {
  const auto& g = expander_.graph();
  const int d = config_.structure.hosts_per_tor;
  const auto sw_q = config_.switch_queue_config();
  const double rate = config_.link.rate_bps;
  const sim::Time prop = config_.link.propagation;

  routes_ = expander_.routes();
  uplink_of_.assign(static_cast<std::size_t>(g.num_vertices()),
                    std::vector<int>(static_cast<std::size_t>(g.num_vertices()), -1));

  std::vector<net::Switch*> tors;
  for (topo::Vertex t = 0; t < g.num_vertices(); ++t) {
    tors.push_back(&add_switch(shard_of_rack(t), "tor" + std::to_string(t), t));
    for (int p = 0; p < d + g.degree(t); ++p) tors.back()->add_port(rate, prop, sw_q);
  }
  for (net::Switch* tor : tors) add_hosts(*tor, config_.host_queue_config());
  // Inter-ToR wiring: ToR a's uplink j connects to its j-th neighbor.
  for (topo::Vertex a = 0; a < g.num_vertices(); ++a) {
    const auto& nbrs = g.neighbors(a);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      uplink_of_[static_cast<std::size_t>(a)][static_cast<std::size_t>(nbrs[j])] =
          d + static_cast<int>(j);
    }
  }
  for (topo::Vertex a = 0; a < g.num_vertices(); ++a) {
    const auto& nbrs = g.neighbors(a);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const topo::Vertex b = nbrs[j];
      const int b_port = uplink_of_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)];
      tors[static_cast<std::size_t>(a)]->port(d + static_cast<int>(j))
          .connect(tors[static_cast<std::size_t>(b)], b_port);
    }
  }

  for (net::Switch* tor : tors) {
    salts_.push_back(net::ecmp_salt(config_.seed, static_cast<std::uint32_t>(tor->id())));
    tor->set_router(this);
  }
}

int ExpanderNetwork::route(net::Switch& tor, net::PacketPtr& pkt) {
  const std::int32_t rack = tor.id();
  const int d = config_.structure.hosts_per_tor;
  if (pkt->dst_rack == rack) return pkt->dst_host - rack * d;
  const auto nexts = routes_.next_hops(rack, pkt->dst_rack);
  if (nexts.empty()) return kNoRoute;
  const topo::Vertex next =
      nexts[net::ecmp_pick(*pkt, salts_[static_cast<std::size_t>(rack)], nexts.size())];
  return uplink_of_[static_cast<std::size_t>(rack)][static_cast<std::size_t>(next)];
}

std::string ExpanderNetwork::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "static expander (%d ToRs, u=%d, d=%d, %d hosts)",
                num_racks(), config_.structure.uplinks,
                config_.structure.hosts_per_tor, num_hosts());
  return buf;
}

}  // namespace opera::core
