// Flow metadata and completion tracking shared by all transports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/checkpoint.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace opera::transport {

struct Flow {
  std::uint64_t id = 0;
  std::int32_t src_host = -1;
  std::int32_t dst_host = -1;
  std::int32_t src_rack = -1;
  std::int32_t dst_rack = -1;
  std::int64_t size_bytes = 0;
  net::TrafficClass tclass = net::TrafficClass::kLowLatency;
  sim::Time start;

  [[nodiscard]] std::uint64_t total_packets() const {
    return static_cast<std::uint64_t>(
        (size_bytes + net::kMaxPayloadBytes - 1) / net::kMaxPayloadBytes);
  }
  // Wire size of packet `seq` (header + payload; last packet may be short).
  [[nodiscard]] std::int32_t wire_bytes(std::uint64_t seq) const {
    const std::int64_t offset = static_cast<std::int64_t>(seq) * net::kMaxPayloadBytes;
    const std::int64_t payload = std::min<std::int64_t>(net::kMaxPayloadBytes,
                                                        size_bytes - offset);
    return static_cast<std::int32_t>(payload) + net::kHeaderBytes;
  }
};

struct FlowRecord {
  Flow flow;
  sim::Time end;
  [[nodiscard]] sim::Time fct() const { return end - flow.start; }
};

// Registry of flows plus completion records; experiment harnesses query it
// for FCT percentiles by flow-size bucket (the paper's Figures 7 and 9).
//
// Sharded execution: completions and deliveries happen concurrently on
// shard worker threads, so with lanes enabled (set_lanes) each record is
// staged into the calling shard's private lane and merged by flush_lanes()
// — called at every epoch barrier — in canonical (time, flow id) order.
// The merged stream is identical for any shard count: a record's time and
// flow are partition-independent, and records of one flow always land in
// one lane (its destination host's), so the stable sort preserves their
// per-flow order. Hooks fire during the merge, on the barrier thread.
class FlowTracker {
 public:
  // Called on completion (after the record is stored).
  using CompletionHook = std::function<void(const FlowRecord&)>;
  void set_completion_hook(CompletionHook hook) { hook_ = std::move(hook); }
  // Called whenever payload bytes are delivered to their final destination
  // (drives throughput-vs-time series, Figure 8).
  using DeliveryHook = std::function<void(const Flow&, std::int64_t bytes, sim::Time at)>;
  void set_delivery_hook(DeliveryHook hook) { delivery_hook_ = std::move(hook); }

  // Stores `flow`, whose id must be the next in registration order
  // (registered() + 1, as next_flow_id() hands them out to a caller that
  // registers every id it takes); an id out of order aborts.
  const Flow& register_flow(const Flow& flow);
  // The flow with `id`, or nullptr outside [1, registered()]. The pointer
  // (and the reference register_flow returns) stays valid until the next
  // registration, which may grow the registry.
  [[nodiscard]] const Flow* find(std::uint64_t id) const {
    return id - 1 < flows_.size() ? &flows_[id - 1] : nullptr;
  }

  void on_delivered(std::uint64_t id, std::int64_t bytes, sim::Time at);
  void on_complete(std::uint64_t id, sim::Time end);

  [[nodiscard]] const std::vector<FlowRecord>& completions() const { return completions_; }
  [[nodiscard]] std::size_t registered() const { return flows_.size(); }
  [[nodiscard]] std::size_t completed() const { return completions_.size(); }

  // FCTs (in microseconds) of completed flows with size in [lo, hi).
  [[nodiscard]] sim::PercentileSampler fct_us(std::int64_t lo_bytes,
                                              std::int64_t hi_bytes) const;

  [[nodiscard]] std::uint64_t next_flow_id() { return next_id_++; }

  // Checkpoint hook: registration/completion counts plus every completion
  // record in the canonical (time, flow id) merge order — which is
  // partition-invariant by the lane-merge contract above. Must be called
  // from a barrier (lanes flushed), like any completion-stream read.
  void fingerprint(sim::Fingerprint& fp) const;

  // Enables per-shard staging with `n` lanes (0 disables — the direct,
  // single-threaded path). Call before the run starts.
  void set_lanes(int n);
  // Merges every lane's staged records into the completion/delivery
  // streams in (time, flow id) order and fires the hooks. Must be called
  // from a barrier (no shard phase in flight).
  void flush_lanes();

 private:
  struct StagedDelivery {
    std::uint64_t id;
    std::int64_t bytes;
    sim::Time at;
  };
  struct Lane {
    std::vector<FlowRecord> completions;
    std::vector<StagedDelivery> deliveries;
  };

  // flows_[id - 1]: ids are dense from 1, so the registry is a vector.
  std::vector<Flow> flows_;
  std::vector<FlowRecord> completions_;
  CompletionHook hook_;
  DeliveryHook delivery_hook_;
  std::uint64_t next_id_ = 1;
  std::vector<Lane> lanes_;
  std::vector<FlowRecord> merge_completions_;    // flush scratch
  std::vector<StagedDelivery> merge_deliveries_;
};

}  // namespace opera::transport
