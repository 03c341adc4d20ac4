#include "core/clos_network.h"

#include <cstdio>
#include <vector>

#include "net/ecmp.h"

namespace opera::core {

ClosNetwork::ClosNetwork(const ClosNetConfig& config)
    : PacketFabric({.num_racks = config.structure.num_tors(),
                    .hosts_per_rack = config.structure.hosts_per_tor(),
                    .link = config.link,
                    .bulk_threshold_bytes = config.bulk_threshold_bytes,
                    .threads = config.threads,
                    .rotorlb_bulk = false}),
      config_(config),
      clos_(config.structure) {
  build();
}

void ClosNetwork::build() {
  const int k = config_.structure.radix;
  const int d = config_.structure.hosts_per_tor();
  const int u = config_.structure.tor_uplinks();
  const int tors_per_pod = k / 2;
  const auto sw_q = config_.switch_queue_config();
  const double rate = config_.link.rate_bps;
  const sim::Time prop = config_.link.propagation;

  std::vector<net::Switch*> tors;
  std::vector<net::Switch*> aggs;
  std::vector<net::Switch*> cores;
  for (topo::Vertex t = 0; t < clos_.num_tors(); ++t) {
    tors.push_back(&add_switch(shard_of_rack(t), "tor" + std::to_string(t), t));
    for (int p = 0; p < d + u; ++p) tors.back()->add_port(rate, prop, sw_q);
  }
  for (topo::Vertex a = 0; a < clos_.num_aggs(); ++a) {
    const int pod = static_cast<int>(a) / u;
    aggs.push_back(
        &add_switch(shard_of_rack(pod * tors_per_pod), "agg" + std::to_string(a), a));
    for (int p = 0; p < k; ++p) aggs.back()->add_port(rate, prop, sw_q);
  }
  for (topo::Vertex c = 0; c < clos_.num_cores(); ++c) {
    cores.push_back(&add_switch(static_cast<int>(c) % num_shards(),
                                "core" + std::to_string(c), c));
    for (int p = 0; p < clos_.num_pods(); ++p) cores.back()->add_port(rate, prop, sw_q);
  }

  for (net::Switch* tor : tors) add_hosts(*tor, config_.host_queue_config());

  // ToR <-> agg: ToR t's uplink j pairs with agg (pod*u + j), whose down
  // port for t is t's index within the pod.
  for (topo::Vertex t = 0; t < clos_.num_tors(); ++t) {
    const int pod = clos_.pod_of_tor(t);
    const int idx_in_pod = static_cast<int>(t) - pod * tors_per_pod;
    for (int j = 0; j < u; ++j) {
      const auto agg = static_cast<std::size_t>(pod * u + j);
      tors[static_cast<std::size_t>(t)]->port(d + j).connect(aggs[agg], idx_in_pod);
      aggs[agg]->port(idx_in_pod).connect(tors[static_cast<std::size_t>(t)], d + j);
    }
  }
  // Agg <-> core: agg a (group g = a mod u) uplink i pairs with core
  // (g*k/2 + i), whose port for agg a is a's pod.
  for (topo::Vertex a = 0; a < clos_.num_aggs(); ++a) {
    const int pod = static_cast<int>(a) / u;
    const int group = static_cast<int>(a) % u;
    for (int i = 0; i < k / 2; ++i) {
      const auto core = static_cast<std::size_t>(group * (k / 2) + i);
      aggs[static_cast<std::size_t>(a)]->port(k / 2 + i).connect(cores[core], pod);
      cores[core]->port(pod).connect(aggs[static_cast<std::size_t>(a)], k / 2 + i);
    }
  }

  // Forwarding: standard up-down ECMP with per-packet spraying (NDP).
  // Salts: (tier, switch id), tier 0 = ToR, 1 = aggregation.
  const auto salt = [this](std::uint64_t tier, const net::Switch& sw) {
    return net::ecmp_salt(config_.seed, tier, static_cast<std::uint32_t>(sw.id()));
  };
  const auto ups = static_cast<std::size_t>(u);
  for (net::Switch* tor : tors) {
    tor->set_forward([d, ups, salt = salt(0, *tor)](net::Switch& swch,
                                                    const net::Packet& pkt, int) {
      if (pkt.dst_rack == swch.id()) return pkt.dst_host - swch.id() * d;
      return d + static_cast<int>(net::ecmp_pick(pkt, salt, ups));
    });
  }
  const auto agg_ups = static_cast<std::size_t>(k / 2);
  for (net::Switch* agg : aggs) {
    agg->set_forward([k, u, tors_per_pod, agg_ups, salt = salt(1, *agg)](
                         net::Switch& swch, const net::Packet& pkt, int) {
      const int pod = swch.id() / u;
      const int dst_pod = pkt.dst_rack / tors_per_pod;
      if (dst_pod == pod) return pkt.dst_rack - pod * tors_per_pod;
      return k / 2 + static_cast<int>(net::ecmp_pick(pkt, salt, agg_ups));
    });
  }
  for (net::Switch* core : cores) {
    core->set_forward([tors_per_pod](net::Switch&, const net::Packet& pkt, int) {
      return pkt.dst_rack / tors_per_pod;
    });
  }
}

std::string ClosNetwork::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%d:1 folded Clos (k=%d, %d pods, %d hosts)",
                config_.structure.oversubscription, config_.structure.radix,
                clos_.num_pods(), num_hosts());
  return buf;
}

}  // namespace opera::core
