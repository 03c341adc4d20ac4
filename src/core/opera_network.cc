#include "core/opera_network.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <numeric>

#include "net/ecmp.h"

namespace opera::core {

template <LowLatencyPlane kPlane>
class OperaNetwork::TorRouter final : public net::Router {
 public:
  explicit TorRouter(OperaNetwork& net) : net_(net) {}
  int route(net::Switch& tor, net::PacketPtr& pkt) override {
    return net_.forward<kPlane>(tor, pkt);
  }
  void no_route(net::Switch& tor, const net::Packet& pkt) override {
    net_.nack(tor, pkt);
  }

 private:
  OperaNetwork& net_;
};

// Hybrid RotorNet's packet core: port r leads to rack r's ToR.
class OperaNetwork::CoreRouter final : public net::Router {
 public:
  int route(net::Switch&, net::PacketPtr& pkt) override { return pkt->dst_rack; }
};

OperaNetwork::OperaNetwork(const OperaConfig& config)
    : PacketFabric({.num_racks = config.topology.num_racks,
                    .hosts_per_rack = config.topology.hosts_per_rack,
                    .link = config.link,
                    .bulk_threshold_bytes = config.bulk_threshold_bytes,
                    .threads = config.threads,
                    .rotorlb_bulk = true}),
      config_(config),
      topo_(config.topology, config.schedule),
      rng_(config.seed),
      failures_(topo::FailureSet::none(config.topology.num_racks,
                                       config.topology.num_switches)),
      skew_extra_(static_cast<std::size_t>(config.topology.num_switches),
                  sim::Time::zero()),
      skew_remaining_(static_cast<std::size_t>(config.topology.num_switches), 0) {
  relay_reach_.assign(static_cast<std::size_t>(config_.topology.num_racks),
                      std::vector<bool>(static_cast<std::size_t>(config_.topology.num_racks),
                                        true));
  build_nodes();
  install_forwarding();

  // Per-slice low-latency forwarding tables (paper §4.3: all routing state
  // is known at design time). Slices are independent, so tables build in
  // parallel. Eager mode precomputes all N up front (through paper scale:
  // 108 slices, ~3.3 MB); a fabric whose tables overflow the 16 MB budget
  // (k=24's ~173 MB, k=32's ~940 MB) keeps a window resident instead,
  // refilled in parallel batches ahead of the rotation at slice boundaries.
  // Only the expander plane routes by them; the other planes keep the
  // empty cache.
  if (config_.low_latency == LowLatencyPlane::kExpander) {
    slice_tables_ = topo::SliceTableCache(
        topo_.num_slices(),
        config_.slice_table_window, [this](int s, topo::EcmpTable& table) {
          topo_.slice_routes(s, route_around_failures_ ? &table_failures_ : nullptr,
                             table);
        });
  }

  // Physical wiring of slice 0, then the slice clock. Slice rotation is a
  // *global* (barrier-aligned) event: it retargets circuits and allocates
  // bulk grants across every rack, so it runs single-threaded between
  // epochs, before any shard processes events of the same timestamp.
  wire(0, config_.topology.num_switches, 0);
  sim().schedule_at(sim::Time::zero(), [this] { on_slice_boundary(0); });
}

OperaNetwork::~OperaNetwork() = default;

void OperaNetwork::build_nodes() {
  const auto d = config_.topology.hosts_per_rack;
  const auto u = config_.topology.num_switches;
  const auto n = config_.topology.num_racks;
  const auto tor_q = config_.tor_queue_config();
  const auto host_q = config_.host_queue_config();
  const double rate = config_.link.rate_bps;
  const sim::Time prop = config_.link.propagation;

  // Hybrid RotorNet's idealized non-blocking packet switch (a substitution
  // that favors the baseline), one port per ToR, on shard 0.
  net::Switch* core = nullptr;
  if (config_.low_latency == LowLatencyPlane::kPacketCore) {
    core = &add_switch(0, "core", 0);
    for (topo::Vertex r = 0; r < n; ++r) core->add_port(rate, prop, tor_q);
    core_router_ = std::make_unique<CoreRouter>();
    core->set_router(core_router_.get());
  }

  for (topo::Vertex r = 0; r < n; ++r) {
    net::Switch& tor = add_switch(shard_of_rack(r), "tor" + std::to_string(r), r);
    // Downlinks, then uplinks, then the core port if any.
    for (int i = 0; i < d + u + (core != nullptr ? 1 : 0); ++i) {
      tor.add_port(rate, prop, tor_q);
    }
    if (core != nullptr) {
      tor.port(core_port()).connect(core, r);
      core->port(r).connect(&tor, -1);
    }
    relays_.push_back(std::make_unique<transport::RotorRelayBuffer>());
    tors_.push_back(&tor);
  }
  for (net::Switch* tor : tors_) add_hosts(*tor, host_q);
}

int OperaNetwork::slice_at(sim::Time t) const {
  const auto abs = t / config_.slice.duration;
  return static_cast<int>(abs % topo_.num_slices());
}

int OperaNetwork::routing_slice(sim::Time now) const {
  // In the tail of a slice, route low-latency traffic by the *next*
  // slice's tables: those exclude the uplink that reconfigures at the
  // boundary, so nothing is left queued on it when it flushes (§4.1's
  // epsilon rule). The next-slice tables are physically valid here: the
  // currently-reconfiguring switch settled onto its next matching at +r.
  // Slice boundaries are barrier-aligned global events, so `now` lies in
  // abs_slice_'s span and a subtraction replaces the 64-bit modulo.
  const sim::Time into_slice = now - config_.slice.duration * abs_slice_;
  assert(into_slice >= sim::Time::zero() && into_slice < config_.slice.duration);
  if (config_.slice.duration - into_slice <= config_.slice.drain_window) {
    return (current_slice_ + 1) % topo_.num_slices();
  }
  return current_slice_;
}

void OperaNetwork::wire(int first, int last, int slice) {
  const int d = config_.topology.hosts_per_rack;
  for (topo::Vertex r = 0; r < topo_.num_racks(); ++r) {
    for (int sw = first; sw < last; ++sw) {
      auto& port = tors_[static_cast<std::size_t>(r)]->port(uplink_port(sw));
      const topo::Vertex peer = topo_.live_peer(sw, r, slice, live_failures_);
      if (peer < 0) {
        port.set_enabled(false);
        continue;
      }
      port.connect(tors_[static_cast<std::size_t>(peer)], d + sw);
      port.set_enabled(true);
    }
  }
}

void OperaNetwork::on_slice_boundary(std::int64_t abs_slice) {
  abs_slice_ = abs_slice;
  current_slice_ = static_cast<int>(abs_slice % topo_.num_slices());
  const int slice = current_slice_;
  const auto [first, last] = topo_.retargeting_switches(slice);

  // Take the retargeting switches' circuits down (one switch when offset,
  // all of them when unison); anything still queued on those uplinks is
  // lost (bulk gets NACKed back to the source host).
  for (net::Switch* tor : tors_) {
    for (int sw = first; sw < last; ++sw) {
      auto& port = tor->port(uplink_port(sw));
      port.queue().flush([this, tor](const net::Packet& pkt) { nack(*tor, pkt); });
      port.set_enabled(false);
    }
  }

  // The rotors settle on their new matchings after the reconfiguration
  // delay (a global event: it touches ports in every shard). A skewed rotor
  // (inject_slice_skew) settles late, leaving its uplinks dark while the
  // drain-window rule already routes next-slice traffic into them.
  sim::Time skew = sim::Time::zero();
  for (int sw = first; sw < last; ++sw) {
    if (skew_remaining_[static_cast<std::size_t>(sw)] > 0) {
      --skew_remaining_[static_cast<std::size_t>(sw)];
      skew = std::max(skew, skew_extra_[static_cast<std::size_t>(sw)]);
    }
  }
  // With a dark prefix no circuit exists before the settle, so bulk is
  // granted there; otherwise at the boundary, below.
  const bool grant_at_settle = config_.dark_prefix() > sim::Time::zero();
  settle_pending_ = true;
  sim().schedule_in(config_.slice.reconfiguration + skew,
                    [this, slice, first, last, grant_at_settle] {
    settle_pending_ = false;
    wire(first, last, topo_.settle_slice(slice));
    if (grant_at_settle) allocate_bulk(slice);
  });

  // Keep the table window ahead of the rotation: once less than half of
  // it lies ahead, evict what fell behind and refill the window in one
  // batch (in parallel — the shard workers are parked at the barrier, so
  // the batch has the whole pool). An eager cache builds nothing here.
  slice_tables_.prefetch(slice);

  if (!grant_at_settle) allocate_bulk(slice);

  sim().schedule_in(config_.slice.duration,
                               [this, abs_slice] { on_slice_boundary(abs_slice + 1); });
}

void OperaNetwork::allocate_bulk(int slice) {
  const int u = config_.topology.num_switches;
  const int d = config_.topology.hosts_per_rack;
  const std::int64_t uplink_budget = config_.slice_bulk_budget();

  std::vector<std::int64_t> host_budget(static_cast<std::size_t>(num_hosts()),
                                        config_.host_slice_budget());
  // Receiver "accept" budgets (RotorLB): a destination rack can absorb at
  // most its downlink capacity per slice; grants beyond that would only be
  // dropped at its ToR.
  std::vector<std::int64_t> in_budget(static_cast<std::size_t>(topo_.num_racks()),
                                      static_cast<std::int64_t>(d) *
                                          config_.host_slice_budget());
  // VLB injections are bounded separately: the true receive constraint is
  // enforced when the relay forwards (take() above), so the injection cap
  // only limits relay-buffer growth toward any one destination.
  std::vector<std::int64_t> vlb_budget(in_budget);

  // Randomize uplink service order so no switch is systematically favored.
  // This is the coordinator's rng: it only ever draws at barrier-aligned
  // events, in global order, so the stream is shard-count-independent.
  std::vector<int> order(static_cast<std::size_t>(u));
  std::iota(order.begin(), order.end(), 0);
  rng_.shuffle(std::span<int>{order});

  // The loop costs what is queued: a rack with an empty relay buffer and
  // no host backlog, and a host with nothing queued, are skipped. Their
  // take and grants would return nothing and change nothing, and the
  // shuffle above still draws, so the output is the same.
  const auto queued = [this](std::size_t h) {
    return agent(static_cast<std::int32_t>(h)).total_queued() > 0;
  };
  for (topo::Vertex r = 0; r < topo_.num_racks(); ++r) {
    const auto first_host = static_cast<std::size_t>(r) * static_cast<std::size_t>(d);
    bool backlog = relays_[static_cast<std::size_t>(r)]->total_bytes() > 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(d) && !backlog; ++i) {
      backlog = queued(first_host + i);
    }
    if (!backlog) continue;
    for (const int sw : order) {
      const topo::Vertex peer = topo_.live_peer(sw, r, slice, live_failures_);
      if (peer < 0) continue;
      std::int64_t budget = uplink_budget;
      net::Switch& tor = *tors_[static_cast<std::size_t>(r)];
      auto& peer_in = in_budget[static_cast<std::size_t>(peer)];

      // (a) Once-relayed VLB traffic has priority (RotorLB).
      for (auto& pkt :
           relays_[static_cast<std::size_t>(r)]->take(peer, std::min(budget, peer_in))) {
        budget -= pkt->size_bytes;
        peer_in -= pkt->size_bytes;
        tor.port(uplink_port(sw)).send(std::move(pkt));
      }

      // (b) Hosts' direct traffic, round-robin offset by slice for fairness.
      for (int i = 0; i < d && budget > 0 && peer_in > 0; ++i) {
        const std::size_t h = first_host + static_cast<std::size_t>((i + slice) % d);
        const std::int64_t grant = std::min({budget, host_budget[h], peer_in});
        if (grant <= 0 || !queued(h)) continue;
        const std::int64_t sent =
            agent(static_cast<std::int32_t>(h)).grant_direct(peer, grant);
        budget -= sent;
        host_budget[h] -= sent;
        peer_in -= sent;
      }

      // (c) Two-hop VLB into leftover capacity (kicks in exactly when
      // demand is skewed: uniform loads consume the budget directly). The
      // relay leg is not receive-limited (it lands in the relay ToR's
      // buffer), but the final destinations are.
      if (config_.enable_vlb) {
        for (int i = 0; i < d && budget > 0; ++i) {
          const std::size_t h = first_host + static_cast<std::size_t>((i + slice) % d);
          const std::int64_t grant = std::min(budget, host_budget[h]);
          if (grant <= 0 || !queued(h)) continue;
          const std::int64_t sent = agent(static_cast<std::int32_t>(h)).grant_vlb(
              peer, grant, std::span<std::int64_t>(vlb_budget),
              &relay_reach_[static_cast<std::size_t>(peer)]);
          budget -= sent;
          host_budget[h] -= sent;
        }
      }
    }
  }
}

template <LowLatencyPlane kPlane>
int OperaNetwork::forward(net::Switch& tor, net::PacketPtr& pkt) {
  const std::int32_t rack = tor.id();
  if (pkt->vlb_relay && pkt->relay_rack == rack && pkt->dst_rack != rack) {
    relays_[static_cast<std::size_t>(rack)]->store(std::move(pkt));
    return net::Router::kConsumed;
  }
  const int d = config_.topology.hosts_per_rack;
  if (pkt->tclass == net::TrafficClass::kLowLatency ||
      pkt->type != net::PacketType::kData) {
    if (pkt->dst_rack == rack) return pkt->dst_host - rack * d;
    if constexpr (kPlane == LowLatencyPlane::kExpander) {
      // The deciding clock is the ToR's own shard clock — identical to
      // the global clock at this event's timestamp under any sharding.
      const int rslice = routing_slice(tor.sim().now());
      // rslice is the current or next slice, which the boundary prefetch
      // (and degrade_memory) keep resident.
      const topo::EcmpTable* table = slice_tables_.peek(rslice);
      assert(table != nullptr);
      const auto nexts = table->next_hops(rack, pkt->dst_rack);
      if (nexts.empty()) return net::Router::kNoRoute;
      const topo::Vertex next = nexts[net::ecmp_pick(
          *pkt,
          net::ecmp_salt(config_.seed, static_cast<std::uint32_t>(rack),
                         static_cast<std::uint32_t>(rslice)),
          nexts.size())];
      const int sw = topo_.live_uplink(rslice, rack, next, live_failures_);
      return sw < 0 ? net::Router::kNoRoute : uplink_port(sw);
    } else if constexpr (kPlane == LowLatencyPlane::kPacketCore) {
      return core_port();
    } else {
      // No packet-switched path: control still needs to travel, so it
      // rides the current circuits if one exists.
      const int sw =
          topo_.live_uplink(current_slice_, rack, pkt->dst_rack, live_failures_);
      return sw < 0 ? net::Router::kNoRoute : uplink_port(sw);
    }
  }
  const std::int32_t target = pkt->vlb_relay ? pkt->relay_rack : pkt->dst_rack;
  if (target == rack) return pkt->dst_host - rack * d;
  const int sw = topo_.live_uplink(current_slice_, rack, target, live_failures_);
  return sw < 0 ? net::Router::kNoRoute : uplink_port(sw);
}

void OperaNetwork::install_forwarding() {
  // Chosen once here, so the per-packet path never branches on the plane.
  switch (config_.low_latency) {
    case LowLatencyPlane::kExpander:
      tor_router_ = std::make_unique<TorRouter<LowLatencyPlane::kExpander>>(*this);
      break;
    case LowLatencyPlane::kPacketCore:
      tor_router_ = std::make_unique<TorRouter<LowLatencyPlane::kPacketCore>>(*this);
      break;
    case LowLatencyPlane::kDirectCircuit:
      tor_router_ = std::make_unique<TorRouter<LowLatencyPlane::kDirectCircuit>>(*this);
      break;
  }

  for (net::Switch* tor : tors_) {
    tor->set_router(tor_router_.get());

    // Bulk overflow on any ToR queue NACKs the source (RotorLB, §4.2.2).
    // Downlinks matter too: direct and VLB-relayed traffic can converge on
    // one receiving host within a slice.
    for (int p = 0; p < tor->num_ports(); ++p) {
      tor->port(p).queue().set_bulk_drop_handler(
          [this, tor](const net::Packet& pkt) { nack(*tor, pkt); });
    }
  }
}

void OperaNetwork::nack(net::Switch& tor, const net::Packet& pkt) {
  if (pkt.type != net::PacketType::kData || pkt.tclass != net::TrafficClass::kBulk) {
    return;
  }
  if (config_.low_latency == LowLatencyPlane::kExpander) {
    tor.receive(net::make_control(pkt, net::PacketType::kNack), -1);
    return;
  }
  tor.ctx().post(host(pkt.src_host).ctx(), tor.ctx().now() + config_.link.propagation,
                 [this, src = pkt.src_host, flow = pkt.flow_id, seq = pkt.seq] {
                   agent(src).handle_nack(flow, seq);
                 });
}

void OperaNetwork::inject_uplink_failure(std::int32_t rack, int rotor_switch) {
  failures_.set_uplink_failed(rack, rotor_switch, true);
  refresh_failures();
  // Anything queued on the dead uplink is lost now; NACK bulk back to the
  // sources over the (still connected) expander.
  net::Switch& t = tor(rack);
  t.port(uplink_port(rotor_switch)).queue().flush(
      [this, &t](const net::Packet& pkt) { nack(t, pkt); });
  t.port(uplink_port(rotor_switch)).set_enabled(false);
  // Hello-protocol dissemination: tables reconverge after one cycle (a
  // global event — recomputation touches every ToR's state).
  sim().schedule_in(config_.cycle_time(), [this] { recompute_after_failure(); });
}

void OperaNetwork::inject_switch_failure(int rotor_switch) {
  failures_.set_switch_failed(rotor_switch, true);
  refresh_failures();
  for (topo::Vertex r = 0; r < topo_.num_racks(); ++r) {
    net::Switch& t = tor(r);
    t.port(uplink_port(rotor_switch)).queue().flush(
        [this, &t](const net::Packet& pkt) { nack(t, pkt); });
    t.port(uplink_port(rotor_switch)).set_enabled(false);
  }
  sim().schedule_in(config_.cycle_time(), [this] { recompute_after_failure(); });
}

void OperaNetwork::recover_uplink(std::int32_t rack, int rotor_switch) {
  failures_.set_uplink_failed(rack, rotor_switch, false);
  refresh_failures();
  // Both endpoints of any circuit through (rack, rotor_switch) may come
  // back; re-wiring the whole switch is idempotent for untouched racks.
  rejoin(rotor_switch);
}

void OperaNetwork::recover_switch(int rotor_switch) {
  failures_.set_switch_failed(rotor_switch, false);
  refresh_failures();
  rejoin(rotor_switch);
}

void OperaNetwork::rejoin(int rotor_switch) {
  const auto [first, last] = topo_.retargeting_switches(current_slice_);
  const bool retargeting = rotor_switch >= first && rotor_switch < last;
  if (!retargeting) {
    wire(rotor_switch, rotor_switch + 1, current_slice_);
  } else if (!settle_pending_) {
    wire(rotor_switch, rotor_switch + 1, topo_.settle_slice(current_slice_));
  }
  sim().schedule_in(config_.cycle_time(), [this] { recompute_after_failure(); });
}

void OperaNetwork::inject_gray_uplink(std::int32_t rack, int rotor_switch,
                                      double loss, sim::Time extra_latency) {
  // Per-port salt: distinct gray links must make independent drop
  // decisions for the same packet, or a retransmission crossing two gray
  // hops would be deterministically doomed.
  const std::uint64_t salt = sim::mix64(
      0x6F70657261677261ULL ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rack)) << 8) ^
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(rotor_switch)));
  tor(rack).port(uplink_port(rotor_switch)).set_gray(loss, extra_latency, salt);
}

void OperaNetwork::clear_gray_uplink(std::int32_t rack, int rotor_switch) {
  tor(rack).port(uplink_port(rotor_switch)).clear_gray();
}

void OperaNetwork::inject_slice_skew(int rotor_switch, sim::Time extra, int count) {
  assert(extra >= sim::Time::zero());
  assert(extra + config_.slice.reconfiguration < config_.slice.duration);
  skew_extra_[static_cast<std::size_t>(rotor_switch)] = extra;
  skew_remaining_[static_cast<std::size_t>(rotor_switch)] = count;
}

void OperaNetwork::recompute_after_failure() {
  // Drop every cached table (their content predates the failure), then
  // rebuild the window in parallel — the full set when eager, the slices
  // from the current one on otherwise. Builds run against a snapshot of
  // the failure set taken now — the reconvergence instant — so a failure
  // injected *after* this point stays invisible to rebuilt tables until
  // its own recompute fires, exactly like the eager precompute behaved.
  route_around_failures_ = true;
  table_failures_ = failures_;
  slice_tables_.invalidate_all();
  slice_tables_.prefetch(current_slice_);
  // Recompute direct reachability (one sweep of every slice's live
  // circuits), purge relay buffers of traffic whose final direct circuit no
  // longer exists (its matching lived on a failed switch/uplink), and stop
  // routing new VLB traffic through dead-end relays. NACKs send stranded
  // packets back to their sources.
  const auto n = static_cast<std::size_t>(topo_.num_racks());
  for (std::size_t r = 0; r < n; ++r) {
    relay_reach_[r].assign(n, false);
    relay_reach_[r][r] = true;
  }
  for (int s = 0; s < topo_.num_slices(); ++s) {
    for (topo::Vertex r = 0; r < topo_.num_racks(); ++r) {
      auto& reach = relay_reach_[static_cast<std::size_t>(r)];
      for (int sw = 0; sw < config_.topology.num_switches; ++sw) {
        const topo::Vertex peer = topo_.live_peer(sw, r, s, live_failures_);
        if (peer >= 0) reach[static_cast<std::size_t>(peer)] = true;
      }
    }
  }
  for (topo::Vertex r = 0; r < topo_.num_racks(); ++r) {
    auto& relay = *relays_[static_cast<std::size_t>(r)];
    for (topo::Vertex dst = 0; dst < topo_.num_racks(); ++dst) {
      if (relay_reach_[static_cast<std::size_t>(r)][static_cast<std::size_t>(dst)] ||
          relay.queued_bytes(dst) == 0) {
        continue;
      }
      for (auto& pkt : relay.take(dst, std::numeric_limits<std::int64_t>::max())) {
        nack(tor(r), *pkt);
      }
    }
  }
}

OperaNetwork::TorStats OperaNetwork::tor_stats() const {
  TorStats stats;
  for (const net::Switch* tor : tors_) {
    stats.forward_drops += tor->forward_drops();
    for (int p = 0; p < tor->num_ports(); ++p) {
      stats.trims += tor->port(p).queue().trims();
      stats.drops += tor->port(p).queue().drops();
      stats.wire_drops += static_cast<std::uint64_t>(tor->port(p).gray_drops());
    }
  }
  return stats;
}

std::size_t OperaNetwork::voq_memory_bytes() const {
  std::size_t bytes = 0;
  for (std::int32_t h = 0; h < num_hosts(); ++h) bytes += agent(h).memory_bytes();
  for (const auto& relay : relays_) bytes += relay->memory_bytes();
  return bytes;
}

void OperaNetwork::fingerprint(sim::Fingerprint& fp) const {
  PacketFabric::fingerprint(fp);
  // Slice rotation state.
  fp.mix_u64(static_cast<std::uint64_t>(current_slice_));
  fp.mix_i64(abs_slice_);
  // Failure machinery: the live set, the table snapshot, and whether
  // routing avoids failures yet.
  fp.mix_bool(route_around_failures_);
  failures_.fingerprint(fp);
  table_failures_.fingerprint(fp);
  // Coordinator rng cursor (bulk grant order draws advance it).
  rng_.fingerprint(fp);
  // Rotor desync state.
  for (const sim::Time t : skew_extra_) fp.mix_time(t);
  for (const int n : skew_remaining_) fp.mix_u64(static_cast<std::uint64_t>(n));
}

bool OperaNetwork::degrade_memory() {
  const int window = slice_tables_.window();
  return slice_tables_.shrink_window(window / 2, current_slice_);
}

std::string OperaNetwork::describe() const {
  // Deliberately identical for any shard count: describe() lands in CSV
  // rows, and sharding must not change a byte of bench output (the
  // threads note carries the metadata instead).
  char buf[96];
  const int d = config_.topology.hosts_per_rack;
  const int u = config_.topology.num_switches;
  if (config_.schedule == topo::RotorSchedule::kUnison) {
    const bool hybrid = config_.low_latency == LowLatencyPlane::kPacketCore;
    std::snprintf(buf, sizeof buf, "RotorNet%s (%d racks x %d hosts, %d switches)",
                  hybrid ? " hybrid" : "", num_racks(), d, u + (hybrid ? 1 : 0));
  } else {
    std::snprintf(buf, sizeof buf, "Opera (%d racks x %d hosts, %d rotors)",
                  num_racks(), d, u);
  }
  return buf;
}

}  // namespace opera::core
