#include "core/packet_fabric.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace opera::core {

namespace {

// Resolved shard count: config override, else $OPERA_TEST_THREADS (the CI
// matrix leg that runs the whole suite sharded), else 1; always clamped to
// the rack count (a shard must own at least one rack-granularity domain).
int resolve_shards(int threads, sim::Time propagation, std::int32_t num_racks) {
  if (threads <= 0) {
    // getenv is mt-unsafe only against concurrent setenv; this runs at
    // fabric construction, before any shard worker exists.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("OPERA_TEST_THREADS")) {
      threads = std::atoi(env);
    }
  }
  if (threads <= 0) threads = 1;
  // Sharding needs lookahead: a (hypothetical) zero-propagation fabric
  // has none, so it runs single-queue like the rack clamp would.
  if (!(propagation > sim::Time::zero())) threads = 1;
  return std::clamp<int>(threads, 1, std::max<std::int32_t>(num_racks, 1));
}

// Registers a new `Sink` for `flow` on `h` and hands it the first packet.
template <typename Sink>
void attach_sink(std::vector<std::unique_ptr<Sink>>& pool, net::Host& h,
                 const transport::Flow& flow, transport::FlowTracker& tracker,
                 net::PacketPtr pkt) {
  Sink* raw = pool.emplace_back(std::make_unique<Sink>(h, flow, tracker)).get();
  h.register_flow(flow.id, [raw](net::PacketPtr p) { raw->on_packet(std::move(p)); });
  raw->on_packet(std::move(pkt));
}

}  // namespace

PacketFabric::PacketFabric(const Shape& shape)
    : num_racks_(shape.num_racks),
      hosts_per_rack_(shape.hosts_per_rack),
      link_(shape.link),
      bulk_threshold_bytes_(shape.bulk_threshold_bytes),
      rotorlb_bulk_(shape.rotorlb_bulk),
      engine_(resolve_shards(shape.threads, shape.link.propagation, shape.num_racks),
              shape.link.propagation) {
  endpoints_.resize(static_cast<std::size_t>(engine_.num_shards()));
  // Completions/deliveries are recorded on shard threads and merged in
  // canonical (time, flow id) order at every epoch barrier — the same
  // canonical stream for any shard count, so parity tests can compare the
  // records verbatim.
  tracker_.set_lanes(engine_.num_shards());
  engine_.set_barrier_hook([this] { tracker_.flush_lanes(); });
}

PacketFabric::~PacketFabric() = default;

net::Switch& PacketFabric::add_switch(int shard, std::string name, std::int32_t id) {
  return *switches_.emplace_back(
      std::make_unique<net::Switch>(engine_.shard(shard), std::move(name), id));
}

void PacketFabric::add_hosts(net::Switch& tor, const net::PortQueue::Config& host_q) {
  const std::int32_t rack = tor.id();
  const int sh = shard_of_rack(rack);
  for (int i = 0; i < hosts_per_rack_; ++i) {
    const std::int32_t id = rack * hosts_per_rack_ + i;
    assert(id == num_hosts());
    auto& host = *hosts_.emplace_back(std::make_unique<net::Host>(
        engine_.shard(sh), "host" + std::to_string(id), id, rack));
    host.add_port(link_.rate_bps, link_.propagation, host_q);
    host.uplink().connect(&tor, i);
    tor.port(i).connect(&host, 0);
    host.set_default_handler([this, sh](net::Host& h, net::PacketPtr pkt) {
      on_unclaimed_packet(h, std::move(pkt), sh);
    });
    if (rotorlb_bulk_) {
      agents_.push_back(
          std::make_unique<transport::RotorLbAgent>(host, tracker_, num_racks_));
    }
  }
}

void PacketFabric::on_unclaimed_packet(net::Host& h, net::PacketPtr pkt, int shard) {
  const transport::Flow* flow = tracker_.find(pkt->flow_id);
  if (flow == nullptr) return;
  const bool rotorlb = rotorlb_bulk_ && flow->tclass == net::TrafficClass::kBulk;
  if (pkt->type == net::PacketType::kNack) {
    // RotorLB loss notification back at the source host.
    if (rotorlb && flow->src_host == h.id()) {
      agent(h.id()).handle_nack(flow->id, pkt->seq);
    }
    return;
  }
  if (pkt->type != net::PacketType::kData && pkt->type != net::PacketType::kHeader) {
    return;  // stray control for a finished flow
  }
  if (flow->dst_host != h.id()) return;
  EndpointPool& pool = endpoints_[static_cast<std::size_t>(shard)];
  if (rotorlb) {
    attach_sink(pool.bulk_sinks, h, *flow, tracker_, std::move(pkt));
  } else {
    attach_sink(pool.ndp_sinks, h, *flow, tracker_, std::move(pkt));
  }
}

std::uint64_t PacketFabric::submit_flow(std::int32_t src_host, std::int32_t dst_host,
                                        std::int64_t size_bytes, sim::Time start,
                                        std::optional<net::TrafficClass> force) {
  assert(src_host != dst_host);
  transport::Flow flow;
  flow.id = tracker_.next_flow_id();
  flow.src_host = src_host;
  flow.dst_host = dst_host;
  flow.src_rack = rack_of_host(src_host);
  flow.dst_rack = rack_of_host(dst_host);
  flow.size_bytes = size_bytes;
  flow.start = start;
  flow.tclass = flow_class(size_bytes, bulk_threshold_bytes_, force);
  // Intra-rack traffic never needs a circuit: rotor fabrics service it on
  // the low-latency path (one ToR hop).
  if (rotorlb_bulk_ && flow.src_rack == flow.dst_rack) {
    flow.tclass = net::TrafficClass::kLowLatency;
  }
  tracker_.register_flow(flow);

  // The start event is seeded onto the source host's shard with a
  // submission-order key, so equal-time starts order identically under any
  // shard count.
  const int sh = shard_of_rack(flow.src_rack);
  engine_.seed(sh, start, [this, sh, flow] {
    if (rotorlb_bulk_ && flow.tclass == net::TrafficClass::kBulk) {
      agent(flow.src_host).add_flow(flow);
      return;
    }
    auto source =
        std::make_unique<transport::NdpSource>(host(flow.src_host), flow, tracker_);
    source->start();
    endpoints_[static_cast<std::size_t>(sh)].ndp_sources.push_back(std::move(source));
  });
  return flow.id;
}

void PacketFabric::fingerprint(sim::Fingerprint& fp) const {
  Network::fingerprint(fp);
  for (const auto& sw : switches_) sw->fingerprint(fp);
  for (const auto& h : hosts_) h->port(0).fingerprint(fp);
}

}  // namespace opera::core
