// Nodes (hosts and switches) and output ports (queue + serializing link).
//
// An OutPort models one unidirectional link: a PortQueue feeding a
// serializer at `rate_bps`, then a fixed propagation delay to the peer
// node. A hop costs one event, the arrival: the serializer's "done" event
// is a sim::DeferredWake, scheduled only when a packet queues behind a
// busy serializer, and a packet that finds the port idle skips the queue. Rotor uplinks additionally support retargeting (the
// circuit switch "patches" the far end to a different ToR each slice) and
// disable/flush around reconfigurations.
//
// Event posting goes through the node's sim::ShardContext — the shard
// handle — rather than a global simulator: packet arrivals are posted into
// the *peer's* domain (a mailbox hop when the peer lives on another
// shard), local timers stay on the node's own queue. Standalone uses
// (unit tests) wrap a plain Simulator in a sim::ShardContext.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/queue.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace opera::net {

class Node;

class OutPort {
 public:
  OutPort(sim::ShardContext& ctx, double rate_bps, sim::Time latency,
          const PortQueue::Config& queue_config)
      : ctx_(ctx), rate_bps_(rate_bps), latency_(latency), queue_(queue_config) {}

  // Wires the far end. May be re-pointed at any time (rotor reconfigure);
  // packets already serialized continue to their original destination.
  void connect(Node* peer, int peer_in_port) {
    peer_ = peer;
    peer_in_port_ = peer_in_port;
  }

  // Enqueues and kicks the serializer.
  EnqueueOutcome send(PacketPtr pkt);

  // Disabled ports accept no new packets (sends are dropped) and stop
  // serializing after the in-flight packet completes.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Gray degradation (lossy-not-dead link): every serialized packet is
  // dropped on the wire with probability `loss` and otherwise delayed by
  // `extra_latency` on top of the propagation delay. The drop decision is
  // a pure hash of packet identity (flow, seq, type), `salt`, and the
  // port's transmission count — not a shared rng draw — so it is
  // independent of cross-port event interleaving and the sharded engine's
  // threads=N bit-identical contract holds, while each transmission
  // attempt still gets a fresh coin (retransmissions are not doomed to
  // repeat the verdict, matching real per-transmission CRC loss). The packet
  // still occupies the serializer (the bits were transmitted; they arrive
  // corrupted), so gray loss wastes link capacity exactly like real CRC
  // drops. `extra_latency` must be >= 0 (never shortens the wire, keeping
  // the sharded engine's lookahead bound safe).
  void set_gray(double loss, sim::Time extra_latency, std::uint64_t salt);
  void clear_gray();
  [[nodiscard]] bool gray() const { return gray_; }
  // Wire drops due to gray loss / packets subjected to the gray coin.
  [[nodiscard]] std::int64_t gray_drops() const { return gray_drops_; }
  [[nodiscard]] std::int64_t gray_tested() const { return gray_tested_; }

  [[nodiscard]] PortQueue& queue() { return queue_; }
  [[nodiscard]] const PortQueue& queue() const { return queue_; }
  [[nodiscard]] Node* peer() const { return peer_; }
  [[nodiscard]] double rate_bps() const { return rate_bps_; }
  [[nodiscard]] sim::Time latency() const { return latency_; }

  // Bytes of bulk-band headroom currently available.
  [[nodiscard]] std::int64_t bulk_headroom(std::int64_t capacity) const {
    return capacity - queue_.bulk_bytes();
  }

  // Checkpoint hook: link availability, gray-degradation state, and the
  // queue digest. The peer pointer is identified by the wiring replay, not
  // by address (addresses differ run to run).
  void fingerprint(sim::Fingerprint& fp) const {
    fp.mix_bool(enabled_);
    fp.mix_bool(serializer_.busy(ctx_.sim()));
    fp.mix_bool(gray_);
    fp.mix_i64(gray_drops_);
    fp.mix_i64(gray_tested_);
    queue_.fingerprint(fp);
  }

 private:
  // Starts the next packet if the serializer is idle; arms the
  // serializer's wake while packets wait behind it.
  void pump();
  // Puts `pkt` on the wire. Precondition: the serializer is idle.
  void transmit(PacketPtr pkt);

  sim::ShardContext& ctx_;
  double rate_bps_;
  sim::Time latency_;
  PortQueue queue_;
  Node* peer_ = nullptr;
  int peer_in_port_ = -1;
  sim::DeferredWake serializer_;
  bool enabled_ = true;
  bool gray_ = false;
  std::uint64_t gray_threshold_ = 0;  // loss * 2^64, compared against a hash
  std::uint64_t gray_salt_ = 0;
  sim::Time gray_extra_latency_;
  std::int64_t gray_drops_ = 0;
  std::int64_t gray_tested_ = 0;
};

class Node {
 public:
  // The node lives in `ctx`'s domain.
  Node(sim::ShardContext& ctx, std::string name) : ctx_(&ctx), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  virtual void receive(PacketPtr pkt, int in_port) = 0;

  int add_port(double rate_bps, sim::Time latency, const PortQueue::Config& config) {
    ports_.push_back(std::make_unique<OutPort>(*ctx_, rate_bps, latency, config));
    return static_cast<int>(ports_.size()) - 1;
  }

  [[nodiscard]] OutPort& port(int i) { return *ports_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const OutPort& port(int i) const { return *ports_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int num_ports() const { return static_cast<int>(ports_.size()); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Simulator& sim() { return ctx_->sim(); }
  [[nodiscard]] sim::ShardContext& ctx() { return *ctx_; }

 private:
  sim::ShardContext* ctx_;
  std::string name_;
  std::vector<std::unique_ptr<OutPort>> ports_;
};

}  // namespace opera::net
