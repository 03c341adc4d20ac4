// RotorLB — the bulk transport (paper §4.2.2, after RotorNet).
//
// End hosts buffer bulk traffic in per-destination-rack virtual output
// queues and transmit only when granted capacity for a slice in which
// their ToR holds a direct circuit to the destination (admission is
// coordinated with the circuit state, §3.5). Under skew, spare direct
// capacity is used for two-hop Valiant load balancing: packets are sent to
// an intermediate rack, whose ToR buffers them and forwards on a later
// direct circuit (once-relayed traffic has priority). ToR-level drops are
// recovered with NACKs that re-enqueue the packet at the source host.
//
// Grant allocation is performed by the network controller
// (core::OperaNetwork, which also runs RotorNet), which models the
// paper's polling-based host admission.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/host.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/ring.h"
#include "transport/flow.h"
#include "transport/sparse_voq.h"

namespace opera::transport {

// Per-host bulk agent: VOQs of (flow, sequence-range) segments, packets
// materialized lazily at grant time so multi-gigabyte flows cost O(1)
// memory.
class RotorLbAgent {
 public:
  // VOQ slots materialize on first touch (see transport/sparse_voq.h).
  RotorLbAgent(net::Host& host, FlowTracker& tracker);

  // Queues a registered bulk flow for transmission.
  void add_flow(const Flow& flow);

  // Sends up to `budget_bytes` of traffic destined to `target_rack` on the
  // current direct circuit. Returns wire bytes sent.
  std::int64_t grant_direct(std::int32_t target_rack, std::int64_t budget_bytes);

  // Sends up to `budget_bytes` of traffic destined to racks *other than*
  // `relay_rack` via the direct circuit to `relay_rack` (two-hop VLB).
  // Longest VOQs are drained first. `dst_budget` (RotorLB's receiver
  // "accept" phase) caps the bytes injected toward each destination rack
  // this slice and is decremented in place. Returns wire bytes sent.
  // `allowed_dst` (optional) restricts which destinations may be relayed
  // through `relay_rack` — the controller masks destinations the relay can
  // no longer reach directly after failures.
  std::int64_t grant_vlb(std::int32_t relay_rack, std::int64_t budget_bytes,
                         std::span<std::int64_t> dst_budget,
                         const std::vector<bool>* allowed_dst = nullptr);

  // RotorLB NACK: packet `seq` of `flow_id` was dropped in-network;
  // re-enqueue it at the front of its VOQ.
  void handle_nack(std::uint64_t flow_id, std::uint64_t seq);

  [[nodiscard]] std::int64_t queued_bytes(std::int32_t rack) const {
    return voq_.bytes(rack);
  }
  [[nodiscard]] std::int64_t total_queued() const { return voq_.total_bytes(); }
  // Structural VOQ memory (the k=32 probe, like EcmpTable's).
  [[nodiscard]] std::size_t memory_bytes() const { return voq_.memory_bytes(); }
  [[nodiscard]] net::Host& host() { return host_; }

 private:
  struct Segment {
    std::uint64_t flow_id = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t end_seq = 0;  // exclusive
  };

  // Materializes and sends one packet from `seg`; returns wire bytes.
  std::int64_t emit(const Flow& flow, Segment& seg, std::int32_t relay_rack);
  std::int64_t drain_voq(std::int32_t rack, std::int64_t budget_bytes,
                         std::int32_t relay_rack);
  [[nodiscard]] std::int64_t segment_wire_bytes(const Segment& seg) const;

  net::Host& host_;
  FlowTracker& tracker_;
  SparseVoq<sim::Ring<Segment>> voq_;
};

// Receiver endpoint for a bulk flow: counts distinct packets, reports
// delivery and completion to the tracker. Reliability is hop-coordinated
// admission plus NACK-on-drop; as a backstop against lost NACKs the sink
// re-requests missing sequences when no progress is made for
// `kStallCheckInterval` (a receiver-driven retransmission timer).
class RotorLbSink final : public net::Endpoint {
 public:
  RotorLbSink(net::Host& host, const Flow& flow, FlowTracker& tracker);
  ~RotorLbSink();

  RotorLbSink(const RotorLbSink&) = delete;
  RotorLbSink& operator=(const RotorLbSink&) = delete;

  void on_packet(net::PacketPtr pkt) override;

  [[nodiscard]] bool complete() const { return received_ == flow_.total_packets(); }

  static constexpr sim::Time kStallCheckInterval = sim::Time::ms(5);
  // Missing sequences re-requested per stall check.
  static constexpr int kMaxRerequests = 64;

 private:
  void arm_stall_timer();
  void on_stall_check();

  net::Host& host_;
  Flow flow_;
  FlowTracker& tracker_;
  std::uint64_t received_ = 0;
  std::uint64_t received_at_last_check_ = 0;
  std::vector<bool> seen_;
  bool completed_reported_ = false;
  sim::EventHandle stall_timer_;
};

// ToR-side relay buffer for once-relayed (VLB) traffic awaiting a direct
// circuit to its final destination. Relay VOQs materialize on first touch,
// which is what takes the per-ToR relay state from O(racks) — O(racks²)
// across all ToRs, the k=32 blocker — to O(active destinations).
class RotorRelayBuffer {
 public:
  // Stores a relayed packet (clears its relay marking).
  void store(net::PacketPtr pkt);

  // Pops up to `budget_bytes` of packets destined to `rack`.
  [[nodiscard]] std::vector<net::PacketPtr> take(std::int32_t rack,
                                                 std::int64_t budget_bytes);

  [[nodiscard]] std::int64_t queued_bytes(std::int32_t rack) const {
    return voq_.bytes(rack);
  }
  [[nodiscard]] std::int64_t total_bytes() const { return voq_.total_bytes(); }
  [[nodiscard]] std::size_t memory_bytes() const { return voq_.memory_bytes(); }

 private:
  SparseVoq<net::PacketRing> voq_;
};

}  // namespace opera::transport
