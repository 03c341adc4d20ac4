#include "net/host.h"

#include <bit>
#include <cassert>
#include <utility>

namespace opera::net {

Endpoint* Host::find(std::uint64_t flow_id) const {
  if (flows_.empty()) return nullptr;
  const std::size_t mask = flows_.size() - 1;
  for (std::size_t i = home(flow_id);; i = (i + 1) & mask) {
    const FlowSlot& slot = flows_[i];
    if (slot.endpoint == nullptr) return nullptr;
    if (slot.flow_id == flow_id) return slot.endpoint;
  }
}

void Host::register_flow(std::uint64_t flow_id, Endpoint* endpoint) {
  assert(endpoint != nullptr);
  if ((flow_count_ + 1) * 2 > flows_.size()) grow();
  const std::size_t mask = flows_.size() - 1;
  std::size_t i = home(flow_id);
  while (flows_[i].endpoint != nullptr && flows_[i].flow_id != flow_id) {
    i = (i + 1) & mask;
  }
  if (flows_[i].endpoint == nullptr) ++flow_count_;
  flows_[i] = FlowSlot{flow_id, endpoint};
}

void Host::unregister_flow(std::uint64_t flow_id) {
  if (flows_.empty()) return;
  const std::size_t mask = flows_.size() - 1;
  std::size_t hole = home(flow_id);
  while (flows_[hole].endpoint != nullptr && flows_[hole].flow_id != flow_id) {
    hole = (hole + 1) & mask;
  }
  if (flows_[hole].endpoint == nullptr) return;  // not registered
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically in (hole, j], where it would
  // no longer be found. No tombstones, so lookups stay short.
  for (std::size_t j = (hole + 1) & mask; flows_[j].endpoint != nullptr;
       j = (j + 1) & mask) {
    const std::size_t h = home(flows_[j].flow_id);
    const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    flows_[hole] = flows_[j];
    hole = j;
  }
  flows_[hole] = FlowSlot{};
  --flow_count_;
}

void Host::grow() {
  std::vector<FlowSlot> old = std::move(flows_);
  const std::size_t size = old.empty() ? 8 : old.size() * 2;
  flows_.assign(size, FlowSlot{});
  hash_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  flow_count_ = 0;
  for (const FlowSlot& slot : old) {
    if (slot.endpoint != nullptr) register_flow(slot.flow_id, slot.endpoint);
  }
}

void Host::receive(PacketPtr pkt, int in_port) {
  (void)in_port;
  if (Endpoint* endpoint = find(pkt->flow_id)) {
    endpoint->on_packet(std::move(pkt));
    return;
  }
  if (default_handler_ != nullptr) default_handler_->on_unclaimed(*this, std::move(pkt));
  // else: packet for an unknown flow with no factory — dropped silently.
}

void Host::pace_control(PacketPtr pkt) {
  pacer_queue_.push_back(std::move(pkt));
  pacer_kick();
}

void Host::pacer_kick() {
  if (pacer_queue_.empty()) return;
  if (!pacer_.busy(sim())) {
    uplink().send(pacer_queue_.pop_front());
    // One control emission per full-MTU time: data pulled by these credits
    // then arrives at (at most) the receiver's link rate.
    pacer_.start(sim(), sim().now() + uplink().serialization(kMtuBytes));
  }
  if (!pacer_queue_.empty()) pacer_.arm(sim(), [this] { pacer_kick(); });
}

}  // namespace opera::net
