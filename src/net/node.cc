#include "net/node.h"

#include <cassert>

namespace opera::net {

EnqueueOutcome OutPort::send(PacketPtr pkt) {
  if (!enabled_) {
    // A disabled rotor uplink carries nothing; callers are expected to
    // route around it, so treat stray sends as drops.
    return EnqueueOutcome::kDropped;
  }
  if (queue_.empty() && queue_.admits(*pkt) && !serializer_.busy(ctx_.sim())) {
    // Cut-through: an idle serializer takes the packet at once, as
    // enqueue() then dequeue() would, without a trip through the ring.
    transmit(std::move(pkt));
    return EnqueueOutcome::kQueued;
  }
  const EnqueueOutcome outcome = queue_.enqueue(std::move(pkt));
  if (outcome != EnqueueOutcome::kDropped) pump();
  return outcome;
}

void OutPort::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled_) pump();
}

void OutPort::set_gray(double loss, sim::Time extra_latency, std::uint64_t salt) {
  assert(loss >= 0.0 && loss <= 1.0);
  assert(extra_latency >= sim::Time::zero());
  gray_ = true;
  // loss * 2^64 as a saturating u64 threshold (loss == 1.0 drops all).
  gray_threshold_ = loss >= 1.0 ? ~0ULL
                                : static_cast<std::uint64_t>(
                                      loss * 18446744073709551616.0);
  gray_extra_latency_ = extra_latency;
  gray_salt_ = salt;
}

void OutPort::clear_gray() {
  gray_ = false;
  gray_threshold_ = 0;
  gray_extra_latency_ = sim::Time::zero();
}

void OutPort::pump() {
  if (!enabled_ || queue_.empty()) return;
  sim::Simulator& sim = ctx_.sim();
  if (!serializer_.busy(sim)) transmit(queue_.dequeue());
  // Whatever is left waits for the serializer.
  if (!queue_.empty()) serializer_.arm(sim, [this] { pump(); });
}

void OutPort::transmit(PacketPtr pkt) {
  assert(pkt != nullptr);
  const sim::Time wire_time = serialization(pkt->size_bytes);
  // Capture the wire endpoints at serialization start: a rotor retarget
  // mid-flight must not redirect bits already on the fiber.
  Node* peer = peer_;
  const int in_port = peer_in_port_;
  sim::Time arrival_delay = wire_time + latency_;
  bool lost = false;
  if (gray_) {
    // Hash of (packet identity, per-port salt, per-port transmission
    // count). The counter makes each transmission attempt a fresh coin —
    // real CRC loss is per-transmission, so a retransmitted packet must
    // not be deterministically doomed on the same port — and it is safe
    // for the threads=N contract: a port serializes packets in an order
    // that is itself part of the bit-identical simulation state (same
    // idiom as routing's ecmp_pick, never a shared rng draw).
    const std::uint64_t attempt =
        static_cast<std::uint64_t>(gray_tested_++) * 0x9E3779B97F4A7C15ULL;
    const std::uint64_t h = sim::mix64(
        pkt->flow_id ^ (pkt->seq * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(pkt->type) << 56) ^ gray_salt_ ^
        sim::mix64(attempt));
    // Corrupted on the wire: the serializer stays occupied for the full
    // transmission, but no arrival is posted.
    lost = h < gray_threshold_;
    if (lost) ++gray_drops_;
    arrival_delay += gray_extra_latency_;
  }
  if (!lost) {
    // The arrival is posted into the *peer's* domain — a mailbox hop when
    // the peer lives on another shard; `latency_` is what bounds the
    // sharded engine's lookahead. The callback owns the packet
    // (SmallCallback is move-only-capable), so an in-flight packet whose
    // arrival never fires — simulator torn down mid-run — is still
    // reclaimed. post() builds the closure once, in its queue slot.
    ctx_.post(peer->ctx(), ctx_.now() + arrival_delay,
              [peer, in_port, pkt = std::move(pkt)]() mutable {
                peer->receive(std::move(pkt), in_port);
              });
  }
  // The wake takes its key after the arrival's, so every child index of
  // the executing event is the same whether or not the wake is ever armed.
  serializer_.start(ctx_.sim(), ctx_.now() + wire_time);
}

}  // namespace opera::net
