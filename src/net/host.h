// End host: one NIC uplink to its ToR, per-flow packet dispatch, and a
// receiver-side control pacer (NDP pull pacing).
#pragma once

#include <cstdint>
#include <vector>

#include "net/node.h"
#include "net/packet.h"
#include "net/queue.h"

namespace opera::net {

class Host;

// A transport endpoint on a host (NDP source or sink, RotorLB sink): it
// receives every packet of the flows registered to it.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_packet(PacketPtr pkt) = 0;
};

// Receives packets of flows with no registered endpoint (used to create
// receiver endpoints lazily on first arrival).
class DefaultHandler {
 public:
  virtual ~DefaultHandler() = default;
  virtual void on_unclaimed(Host& host, PacketPtr pkt) = 0;
};

class Host : public Node {
 public:
  Host(sim::ShardContext& ctx, std::string name, std::int32_t id, std::int32_t rack)
      : Node(ctx, std::move(name)), id_(id), rack_(rack) {}

  [[nodiscard]] std::int32_t id() const { return id_; }
  [[nodiscard]] std::int32_t rack() const { return rack_; }

  // The single host->ToR port (port 0 by convention).
  [[nodiscard]] OutPort& uplink() { return port(0); }

  // Routes `flow_id`'s packets to `endpoint` (replacing any earlier one).
  // Both may run inside a dispatch, even the endpoint's own: entries are
  // pointers, so a table that grows never moves the running endpoint.
  void register_flow(std::uint64_t flow_id, Endpoint* endpoint);
  void unregister_flow(std::uint64_t flow_id);
  // `handler` must outlive every packet this host receives; nullptr drops
  // unclaimed packets.
  void set_default_handler(DefaultHandler* handler) { default_handler_ = handler; }

  void receive(PacketPtr pkt, int in_port) override;

  // Sends a control packet through the receiver pacer: control packets are
  // emitted one per MTU serialization time, which is how NDP's pull pacing
  // clocks the sender at the receiver's link rate.
  void pace_control(PacketPtr pkt);

 private:
  // Flow table: open addressing with linear probing over a power-of-two
  // array, at most half full. A slot is empty when its endpoint is null.
  // Keyed lookup only — dispatch is by the arriving packet's flow id, so
  // no order of the table can affect delivery order.
  struct FlowSlot {
    std::uint64_t flow_id = 0;
    Endpoint* endpoint = nullptr;
  };
  // Home slot: Fibonacci hashing, so strided flow ids spread too.
  [[nodiscard]] std::size_t home(std::uint64_t flow_id) const {
    return static_cast<std::size_t>((flow_id * 0x9E3779B97F4A7C15ULL) >> hash_shift_);
  }
  [[nodiscard]] Endpoint* find(std::uint64_t flow_id) const;
  void grow();

  // Emits the next control packet if the pacer is idle; arms the pacer's
  // wake while packets wait.
  void pacer_kick();

  std::int32_t id_;
  std::int32_t rack_;
  std::vector<FlowSlot> flows_;
  std::size_t flow_count_ = 0;
  unsigned hash_shift_ = 64;
  DefaultHandler* default_handler_ = nullptr;
  PacketRing pacer_queue_;
  sim::DeferredWake pacer_;
};

}  // namespace opera::net
