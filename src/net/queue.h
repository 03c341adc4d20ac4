// Output-port queue with the paper's service structure:
//   band 0 — control (ACK/NACK/PULL) and trimmed headers; strict priority
//   band 1 — low-latency data; NDP trimming when full (payload dropped,
//            64-byte header re-queued into band 0)
//   band 2 — bulk data; dropped when full (the RotorLB NACK path, §4.2.2)
//
// Capacities default to the paper's constants: 12 KB low-latency data
// (8 MTU), an equal-sized header band, and a bulk band sized by the caller
// (ToR bulk queues hold roughly one slice worth of data).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "sim/checkpoint.h"
#include "sim/ring.h"

namespace opera::net {

enum class EnqueueOutcome : std::uint8_t {
  kQueued,   // accepted as-is
  kTrimmed,  // payload dropped; header queued in the control band
  kDropped,  // packet discarded entirely
};

// FIFO of packets over a power-of-two ring buffer (see sim/ring.h):
// no memory until first use, capacity retained across drain/fill cycles,
// so steady-state enqueue/dequeue never allocates — unlike std::deque,
// which allocates and frees chunks as the queue breathes.
using PacketRing = sim::Ring<PacketPtr>;

class PortQueue {
 public:
  struct Config {
    std::int64_t control_capacity_bytes = 12'000;   // headers + control
    std::int64_t low_latency_capacity_bytes = 12'000;  // 8 full MTUs (NDP)
    std::int64_t bulk_capacity_bytes = 180'000;     // ~1 slice at 10G/slice
    bool trim_low_latency = true;  // NDP trimming vs. plain drop-tail
    // Static baselines run NDP for bulk flows too, so their bulk band also
    // trims; Opera ToRs use the RotorLB NACK path instead (false).
    bool trim_bulk = false;
  };

  PortQueue() : PortQueue(Config{}) {}
  explicit PortQueue(const Config& config) : config_(config) {}

  // Callback invoked when a bulk packet is dropped (ToRs use this to send a
  // RotorLB NACK to the source host). The packet is passed by reference and
  // destroyed after the callback returns.
  using DropHandler = std::function<void(const Packet&)>;
  void set_bulk_drop_handler(DropHandler handler) { on_bulk_drop_ = std::move(handler); }

  EnqueueOutcome enqueue(PacketPtr pkt);

  // True when enqueue() would queue `pkt` as is: its band has room.
  [[nodiscard]] bool admits(const Packet& pkt) const {
    if (pkt.type != PacketType::kData) {
      return control_bytes_ + pkt.size_bytes <= config_.control_capacity_bytes;
    }
    if (pkt.tclass == TrafficClass::kLowLatency) {
      return low_latency_bytes_ + pkt.size_bytes <= config_.low_latency_capacity_bytes;
    }
    return bulk_bytes_ + pkt.size_bytes <= config_.bulk_capacity_bytes;
  }

  // Highest-priority-first dequeue; nullptr when empty.
  [[nodiscard]] PacketPtr dequeue();

  [[nodiscard]] bool empty() const {
    return control_.empty() && low_latency_.empty() && bulk_.empty();
  }
  [[nodiscard]] std::int64_t control_bytes() const { return control_bytes_; }
  [[nodiscard]] std::int64_t low_latency_bytes() const { return low_latency_bytes_; }
  [[nodiscard]] std::int64_t bulk_bytes() const { return bulk_bytes_; }
  [[nodiscard]] std::int64_t total_bytes() const {
    return control_bytes_ + low_latency_bytes_ + bulk_bytes_;
  }

  // Counters for instrumentation.
  [[nodiscard]] std::uint64_t trims() const { return trims_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

  // Checkpoint hook: occupancy and loss counters. The queued packets
  // themselves are regenerated by replay, so the per-band byte totals plus
  // the trim/drop history pin the queue's observable state.
  void fingerprint(sim::Fingerprint& fp) const {
    fp.mix_i64(control_bytes_);
    fp.mix_i64(low_latency_bytes_);
    fp.mix_i64(bulk_bytes_);
    fp.mix_u64(trims_);
    fp.mix_u64(drops_);
  }

  // Removes all queued packets, invoking `handler` (may be null) for each
  // bulk data packet — used when a rotor circuit reconfigures under a
  // non-empty queue.
  void flush(const DropHandler& handler);

 private:
  Config config_;
  PacketRing control_;
  PacketRing low_latency_;
  PacketRing bulk_;
  std::int64_t control_bytes_ = 0;
  std::int64_t low_latency_bytes_ = 0;
  std::int64_t bulk_bytes_ = 0;
  std::uint64_t trims_ = 0;
  std::uint64_t drops_ = 0;
  DropHandler on_bulk_drop_;
};

}  // namespace opera::net
