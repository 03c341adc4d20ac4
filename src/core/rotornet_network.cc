#include "core/rotornet_network.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace opera::core {

RotorNetNetwork::RotorNetNetwork(const RotorNetConfig& config)
    : PacketFabric({.num_racks = config.structure.num_racks,
                    .hosts_per_rack = config.hosts_per_rack,
                    .link = config.link,
                    .ndp = config.ndp,
                    .threads = config.threads,
                    .rotorlb_bulk = true}),
      config_(config),
      topo_(config.structure),
      rng_(config.seed) {
  build();
  sim().schedule_at(sim::Time::zero(), [this] { on_slice_boundary(0); });
}

net::TrafficClass RotorNetNetwork::classify(std::int64_t size_bytes) const {
  // No packet-switched path without the hybrid core: everything waits for
  // circuits.
  if (!config_.structure.hybrid) return net::TrafficClass::kBulk;
  return size_bytes >= config_.bulk_threshold_bytes ? net::TrafficClass::kBulk
                                                    : net::TrafficClass::kLowLatency;
}

void RotorNetNetwork::build() {
  const int d = config_.hosts_per_rack;
  const int rotors = topo_.num_rotor_switches();
  const bool hybrid = config_.structure.hybrid;
  const auto n = config_.structure.num_racks;
  const auto tor_q = config_.tor_queue_config();
  const double rate = config_.link.rate_bps;
  const sim::Time prop = config_.link.propagation;
  const int ports = d + rotors + (hybrid ? 1 : 0);

  net::Switch* core = nullptr;  // hybrid only: idealized big switch
  if (hybrid) {
    core = &add_switch(0, "core", 0);
    for (topo::Vertex r = 0; r < n; ++r) core->add_port(rate, prop, tor_q);
    core->set_forward([](net::Switch&, const net::Packet& pkt, int) {
      return pkt.dst_rack;
    });
  }

  for (topo::Vertex r = 0; r < n; ++r) {
    net::Switch& tor = add_switch(shard_of_rack(r), "tor" + std::to_string(r), r);
    for (int p = 0; p < ports; ++p) tor.add_port(rate, prop, tor_q);
    if (hybrid) {
      tor.port(core_port()).connect(core, r);
      core->port(r).connect(&tor, -1);
    }
    relays_.push_back(std::make_unique<transport::RotorRelayBuffer>(n));
    tors_.push_back(&tor);
  }
  for (net::Switch* tor : tors_) add_hosts(*tor, config_.host_queue_config());

  for (net::Switch* tor : tors_) {
    tor->set_intercept([this](net::Switch& swch, net::PacketPtr& pkt, int) {
      if (pkt->vlb_relay && pkt->relay_rack == swch.id() && pkt->dst_rack != swch.id()) {
        relays_[static_cast<std::size_t>(swch.id())]->store(std::move(pkt));
        return true;
      }
      return false;
    });
    tor->set_forward([this, d, hybrid](net::Switch& swch, const net::Packet& pkt,
                                       int) -> int {
      const std::int32_t rack = swch.id();
      const bool low_latency_path =
          pkt.tclass == net::TrafficClass::kLowLatency ||
          pkt.type != net::PacketType::kData;
      if (low_latency_path) {
        if (pkt.dst_rack == rack) return pkt.dst_host - rack * d;
        // Non-hybrid RotorNet has no packet-switched path: control still
        // needs to travel, so it rides the current circuits if one exists.
        if (hybrid) return core_port();
        const int sw = uplink_to(current_slice_, rack, pkt.dst_rack);
        return sw < 0 ? -1 : uplink_port(sw);
      }
      const std::int32_t target = pkt.vlb_relay ? pkt.relay_rack : pkt.dst_rack;
      if (target == rack) return pkt.dst_host - rack * d;
      const int sw = uplink_to(current_slice_, rack, target);
      return sw < 0 ? -1 : uplink_port(sw);
    });
    tor->set_drop_hook(
        [this](net::Switch& swch, const net::Packet& pkt) { nack_source(swch, pkt); });
    for (int p = 0; p < ports; ++p) {
      tor->port(p).queue().set_bulk_drop_handler(
          [this, tor](const net::Packet& pkt) { nack_source(*tor, pkt); });
    }
  }
}

void RotorNetNetwork::nack_source(net::Switch& tor, const net::Packet& pkt) {
  if (pkt.type != net::PacketType::kData || pkt.tclass != net::TrafficClass::kBulk) {
    return;
  }
  tor.ctx().post(host(pkt.src_host).ctx(), tor.ctx().now() + config_.link.propagation,
                 [this, src = pkt.src_host, flow = pkt.flow_id, seq = pkt.seq] {
                   agent(src).handle_nack(flow, seq);
                 });
}

int RotorNetNetwork::uplink_to(int slice, std::int32_t rack, std::int32_t peer) const {
  for (int sw = 0; sw < topo_.num_rotor_switches(); ++sw) {
    if (topo_.circuit_peer(sw, rack, slice) == peer) return sw;
  }
  return -1;
}

void RotorNetNetwork::on_slice_boundary(std::int64_t abs_slice) {
  current_slice_ = static_cast<int>(abs_slice % topo_.num_slices());
  const int slice = current_slice_;

  // All rotors retarget at once: every uplink goes dark for the
  // reconfiguration delay (this is RotorNet's fundamental difference from
  // Opera's staggered schedule, Fig. 3a vs 3b).
  for (net::Switch* tor : tors_) {
    for (int sw = 0; sw < topo_.num_rotor_switches(); ++sw) {
      auto& port = tor->port(uplink_port(sw));
      port.queue().flush([this, tor](const net::Packet& pkt) { nack_source(*tor, pkt); });
      port.set_enabled(false);
    }
  }
  sim().schedule_in(config_.slice.reconfiguration, [this, slice] {
    const int d = config_.hosts_per_rack;
    for (std::size_t r = 0; r < tors_.size(); ++r) {
      for (int sw = 0; sw < topo_.num_rotor_switches(); ++sw) {
        const topo::Vertex peer =
            topo_.circuit_peer(sw, static_cast<topo::Vertex>(r), slice);
        auto& port = tors_[r]->port(uplink_port(sw));
        if (peer == static_cast<topo::Vertex>(r)) {
          port.set_enabled(false);
        } else {
          port.connect(tors_[static_cast<std::size_t>(peer)], d + sw);
          port.set_enabled(true);
        }
      }
    }
    allocate_bulk(slice);
  });

  sim().schedule_in(config_.slice.duration,
                    [this, abs_slice] { on_slice_boundary(abs_slice + 1); });
}

void RotorNetNetwork::allocate_bulk(int slice) {
  const int d = config_.hosts_per_rack;
  const std::int64_t uplink_budget = config_.slice_bulk_budget();
  std::vector<std::int64_t> host_budget(static_cast<std::size_t>(num_hosts()),
                                        uplink_budget);
  std::vector<std::int64_t> in_budget(tors_.size(),
                                      static_cast<std::int64_t>(d) * uplink_budget);
  std::vector<std::int64_t> vlb_budget(in_budget);

  std::vector<int> order(static_cast<std::size_t>(topo_.num_rotor_switches()));
  std::iota(order.begin(), order.end(), 0);
  rng_.shuffle(std::span<int>{order});

  for (std::size_t r = 0; r < tors_.size(); ++r) {
    for (const int sw : order) {
      const topo::Vertex peer =
          topo_.circuit_peer(sw, static_cast<topo::Vertex>(r), slice);
      if (peer == static_cast<topo::Vertex>(r)) continue;
      std::int64_t budget = uplink_budget;
      net::Switch& tor = *tors_[r];
      auto& peer_in = in_budget[static_cast<std::size_t>(peer)];
      for (auto& pkt : relays_[r]->take(peer, std::min(budget, peer_in))) {
        budget -= pkt->size_bytes;
        peer_in -= pkt->size_bytes;
        tor.port(uplink_port(sw)).send(std::move(pkt));
      }
      for (int i = 0; i < d && budget > 0 && peer_in > 0; ++i) {
        const auto h = static_cast<std::int32_t>(r) * d + (i + slice) % d;
        const std::int64_t grant =
            std::min({budget, host_budget[static_cast<std::size_t>(h)], peer_in});
        if (grant <= 0) continue;
        const std::int64_t sent = agent(h).grant_direct(peer, grant);
        budget -= sent;
        host_budget[static_cast<std::size_t>(h)] -= sent;
        peer_in -= sent;
      }
      for (int i = 0; i < d && budget > 0; ++i) {
        const auto h = static_cast<std::int32_t>(r) * d + (i + slice) % d;
        const std::int64_t grant =
            std::min(budget, host_budget[static_cast<std::size_t>(h)]);
        if (grant <= 0) continue;
        const std::int64_t sent =
            agent(h).grant_vlb(peer, grant, std::span<std::int64_t>(vlb_budget));
        budget -= sent;
        host_budget[static_cast<std::size_t>(h)] -= sent;
      }
    }
  }
}

std::string RotorNetNetwork::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "RotorNet%s (%d racks x %d hosts, %d switches)",
                config_.structure.hybrid ? " hybrid" : "", num_racks(),
                config_.hosts_per_rack, config_.structure.num_switches);
  return buf;
}

}  // namespace opera::core
