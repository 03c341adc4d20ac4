#include "core/clos_network.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "net/ecmp.h"

namespace opera::core {

namespace {

// Standard up-down ECMP with per-packet spraying (NDP), one router per
// tier. Salts: (tier, switch id), tier 0 = ToR, 1 = aggregation; salts_[i]
// belongs to the tier's switch with id i.
class TorRouter final : public net::Router {
 public:
  TorRouter(int hosts_per_tor, int uplinks, std::vector<std::uint64_t> salts)
      : d_(hosts_per_tor),
        ups_(static_cast<std::size_t>(uplinks)),
        salts_(std::move(salts)) {}
  int route(net::Switch& tor, net::PacketPtr& pkt) override {
    if (pkt->dst_rack == tor.id()) return pkt->dst_host - tor.id() * d_;
    const std::uint64_t salt = salts_[static_cast<std::size_t>(tor.id())];
    return d_ + static_cast<int>(net::ecmp_pick(*pkt, salt, ups_));
  }

 private:
  int d_;
  std::size_t ups_;
  std::vector<std::uint64_t> salts_;
};

class AggRouter final : public net::Router {
 public:
  AggRouter(int radix, int uplinks_per_tor, std::vector<std::uint64_t> salts)
      : k_(radix), u_(uplinks_per_tor), salts_(std::move(salts)) {}
  int route(net::Switch& agg, net::PacketPtr& pkt) override {
    const int tors_per_pod = k_ / 2;
    const int pod = agg.id() / u_;
    const int dst_pod = pkt->dst_rack / tors_per_pod;
    if (dst_pod == pod) return pkt->dst_rack - pod * tors_per_pod;
    return k_ / 2 + static_cast<int>(net::ecmp_pick(
                        *pkt, salts_[static_cast<std::size_t>(agg.id())],
                        static_cast<std::size_t>(k_ / 2)));
  }

 private:
  int k_;
  int u_;
  std::vector<std::uint64_t> salts_;
};

class CoreRouter final : public net::Router {
 public:
  explicit CoreRouter(int tors_per_pod) : tors_per_pod_(tors_per_pod) {}
  int route(net::Switch&, net::PacketPtr& pkt) override {
    return pkt->dst_rack / tors_per_pod_;
  }

 private:
  int tors_per_pod_;
};

}  // namespace

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

  const auto salts = [this](std::uint64_t tier, const std::vector<net::Switch*>& sws) {
    std::vector<std::uint64_t> out;
    for (const net::Switch* sw : sws) {
      out.push_back(
          net::ecmp_salt(config_.seed, tier, static_cast<std::uint32_t>(sw->id())));
    }
    return out;
  };
  routers_.push_back(std::make_unique<TorRouter>(d, u, salts(0, tors)));
  routers_.push_back(std::make_unique<AggRouter>(k, u, salts(1, aggs)));
  routers_.push_back(std::make_unique<CoreRouter>(tors_per_pod));
  for (net::Switch* tor : tors) tor->set_router(routers_[0].get());
  for (net::Switch* agg : aggs) agg->set_router(routers_[1].get());
  for (net::Switch* core : cores) core->set_router(routers_[2].get());
}

std::string ClosNetwork::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%d:1 folded Clos (k=%d, %d pods, %d hosts)",
                config_.structure.oversubscription, config_.structure.radix,
                clos_.num_pods(), num_hosts());
  return buf;
}

}  // namespace opera::core
