// Packets for the packet-level simulation (the htsim-equivalent substrate).
#pragma once

#include <cstdint>
#include <memory>

#include "sim/time.h"

namespace opera::net {

// The paper's two service classes (§4.1): traffic that cannot wait for a
// direct circuit is low-latency and rides multi-hop expander paths;
// everything else is bulk and waits for (near-)direct circuits.
enum class TrafficClass : std::uint8_t { kLowLatency, kBulk };

enum class PacketType : std::uint8_t {
  kData,    // payload-carrying packet
  kHeader,  // NDP-trimmed data packet (payload dropped in-network)
  kAck,     // NDP ack
  kNack,    // NDP nack (data was trimmed) or RotorLB drop notice
  kPull,    // NDP receiver-paced credit
};

struct Packet {
  std::uint64_t flow_id = 0;
  std::uint64_t seq = 0;        // data sequence within the flow (packet index)
  std::int32_t src_host = -1;
  std::int32_t dst_host = -1;
  std::int32_t src_rack = -1;
  std::int32_t dst_rack = -1;
  std::int32_t size_bytes = 0;  // on-wire size
  TrafficClass tclass = TrafficClass::kLowLatency;
  PacketType type = PacketType::kData;
  std::int32_t hops = 0;        // switch-to-switch hops taken so far
  sim::Time enqueued_at;        // set by sources for latency accounting
  // Opera/RotorNet: packets relayed through an intermediate rack by RotorLB
  // two-hop routing (Valiant load balancing) carry the relay rack id; the
  // relay ToR buffers them for re-transmission on a future direct circuit.
  bool vlb_relay = false;
  std::int32_t relay_rack = -1;
};

// Packets are pooled: destroying a PacketPtr returns the object to the
// destroying thread's free list and make_packet() reuses it, so
// steady-state forwarding performs no heap allocation. A sharded run
// allocates a packet on one shard's thread and may free it on another's.
struct PacketDeleter {
  void operator()(Packet* p) const noexcept;
};
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

// A default-initialized Packet from the pool.
[[nodiscard]] PacketPtr make_packet();

inline constexpr std::int32_t kHeaderBytes = 64;   // trimmed/control packets
inline constexpr std::int32_t kMtuBytes = 1500;    // paper's MTU
inline constexpr std::int32_t kMaxPayloadBytes = kMtuBytes - kHeaderBytes;

// Builds the control-plane response packets NDP uses; they travel in the
// reverse direction (dst -> src of the original packet).
[[nodiscard]] PacketPtr make_control(const Packet& in_response_to, PacketType type);

}  // namespace opera::net
