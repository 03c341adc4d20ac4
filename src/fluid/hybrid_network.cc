#include "fluid/hybrid_network.h"

#include <algorithm>
#include <cstdio>

namespace opera::fluid {

HybridNetwork::HybridNetwork(const core::FabricConfig& config)
    : config_(config),
      packet_(std::make_unique<core::OperaNetwork>(config.opera_config())),
      fluid_(std::make_unique<FluidNetwork>(config.opera_config())) {
  hook_sub_tracker(*packet_, packet_buffers_);
  hook_sub_tracker(*fluid_, fluid_buffers_);
}

void HybridNetwork::hook_sub_tracker(core::Network& net,
                                     EngineBuffers& buffers) {
  // Sub-engine hooks fire on the coordinator/barrier thread in canonical
  // per-engine order; buffering defers them to the cross-engine merge.
  net.tracker().set_completion_hook(
      [&buffers](const transport::FlowRecord& record) {
        buffers.completions.push_back(PendingCompletion{
            record.end, buffers.to_master[record.flow.id]});
      });
  net.tracker().set_delivery_hook(
      [&buffers](const transport::Flow& flow, std::int64_t bytes,
                 sim::Time at) {
        buffers.deliveries.push_back(
            PendingDelivery{at, buffers.to_master[flow.id], bytes});
      });
}

std::string HybridNetwork::describe() const {
  char buf[112];
  std::snprintf(buf, sizeof buf,
                "Opera-hybrid (%d racks x %d hosts, %d rotors)",
                static_cast<int>(config_.opera.num_racks),
                config_.opera.hosts_per_rack, config_.opera.num_switches);
  return buf;
}

std::uint64_t HybridNetwork::submit_flow(
    std::int32_t src_host, std::int32_t dst_host, std::int64_t size_bytes,
    sim::Time start, std::optional<net::TrafficClass> force) {
  // Bulk drains in the fluid engine, everything else runs on packets. The
  // master id is registered with the same class the sub-engine will use,
  // so FCT bucket labels match an engine=packet run.
  const net::TrafficClass tclass =
      core::flow_class(size_bytes, config_.bulk_threshold_bytes, force);
  const Engine engine =
      tclass == net::TrafficClass::kBulk ? Engine::kFluid : Engine::kPacket;
  transport::Flow flow;
  flow.id = tracker_.next_flow_id();
  flow.src_host = src_host;
  flow.dst_host = dst_host;
  flow.src_rack = rack_of_host(src_host);
  flow.dst_rack = rack_of_host(dst_host);
  flow.size_bytes = size_bytes;
  flow.tclass = tclass;
  flow.start = start;
  tracker_.register_flow(flow);
  assignments_.push_back(engine);

  core::Network& sub =
      engine == Engine::kFluid ? static_cast<core::Network&>(*fluid_)
                               : static_cast<core::Network&>(*packet_);
  EngineBuffers& buffers =
      engine == Engine::kFluid ? fluid_buffers_ : packet_buffers_;
  const std::uint64_t sub_id =
      sub.submit_flow(src_host, dst_host, size_bytes, start, tclass);
  // Sub ids are dense and 1-based; record the master mapping.
  if (buffers.to_master.size() != sub_id) {
    std::fprintf(stderr, "hybrid: non-dense sub-engine flow id\n");
    std::abort();
  }
  buffers.to_master.push_back(flow.id);
  return flow.id;
}

void HybridNetwork::merge_pending() {
  // Deliveries first, completions second — within each stream, canonical
  // (time, master id) order across both engines. Each engine's buffer is
  // already time-sorted, so this is a stable two-way merge expressed as a
  // sort over mostly-sorted input.
  merge_deliveries_.clear();
  merge_deliveries_.reserve(packet_buffers_.deliveries.size() +
                            fluid_buffers_.deliveries.size());
  merge_deliveries_.insert(merge_deliveries_.end(),
                           packet_buffers_.deliveries.begin(),
                           packet_buffers_.deliveries.end());
  merge_deliveries_.insert(merge_deliveries_.end(),
                           fluid_buffers_.deliveries.begin(),
                           fluid_buffers_.deliveries.end());
  packet_buffers_.deliveries.clear();
  fluid_buffers_.deliveries.clear();
  std::stable_sort(merge_deliveries_.begin(), merge_deliveries_.end(),
                   [](const PendingDelivery& a, const PendingDelivery& b) {
                     return a.at < b.at || (a.at == b.at && a.id < b.id);
                   });
  for (const PendingDelivery& d : merge_deliveries_) {
    tracker_.on_delivered(d.id, d.bytes, d.at);
  }

  merge_completions_.clear();
  merge_completions_.reserve(packet_buffers_.completions.size() +
                             fluid_buffers_.completions.size());
  merge_completions_.insert(merge_completions_.end(),
                            packet_buffers_.completions.begin(),
                            packet_buffers_.completions.end());
  merge_completions_.insert(merge_completions_.end(),
                            fluid_buffers_.completions.begin(),
                            fluid_buffers_.completions.end());
  packet_buffers_.completions.clear();
  fluid_buffers_.completions.clear();
  std::stable_sort(merge_completions_.begin(), merge_completions_.end(),
                   [](const PendingCompletion& a, const PendingCompletion& b) {
                     return a.at < b.at || (a.at == b.at && a.id < b.id);
                   });
  for (const PendingCompletion& c : merge_completions_) {
    tracker_.on_complete(c.id, c.at);
  }
}

void HybridNetwork::run_until(sim::Time t) {
  // Lockstep chunks: each ends at the next driver event (progress tick)
  // or the horizon, whichever is first. Both engines reach the chunk end,
  // the trackers merge, and only then do driver events fire — so hooks
  // always observe merged state.
  while (hybrid_sim_.now() < t) {
    sim::Time chunk_end = t;
    if (!hybrid_sim_.queue().empty()) {
      chunk_end = std::min(chunk_end, hybrid_sim_.queue().next_time());
    }
    packet_->run_until(chunk_end);
    fluid_->run_until(chunk_end);
    merge_pending();
    hybrid_sim_.run_until(chunk_end);
    if (hybrid_sim_.stop_requested()) return;  // progress hook stopped us
  }
}

void HybridNetwork::fingerprint(sim::Fingerprint& fp) const {
  core::Network::fingerprint(fp);  // merged clock, events, master stream
  packet_->fingerprint(fp);
  fluid_->fingerprint(fp);
}

}  // namespace opera::fluid
