#include "net/host.h"

#include <utility>

namespace opera::net {

void Host::receive(PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto it = handlers_.find(pkt->flow_id);
  if (it != handlers_.end()) {
    it->second(std::move(pkt));
    return;
  }
  if (default_handler_) default_handler_(*this, std::move(pkt));
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
    pacer_.start(sim(), sim().now() + sim::Time::transmission(kMtuBytes, uplink().rate_bps()));
  }
  if (!pacer_queue_.empty()) pacer_.arm(sim(), [this] { pacer_kick(); });
}

}  // namespace opera::net
