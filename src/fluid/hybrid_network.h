// fluid::HybridNetwork — packet precision where it matters, fluid scale
// where it doesn't (docs/FLUID.md "Hybrid mode").
//
// Owns a full packet-level core::OperaNetwork and a fluid::FluidNetwork
// built from the same FabricConfig. A size/tag classifier routes each
// submitted flow: latency-sensitive short flows (and anything forced
// kLowLatency — incast request/response traffic) run on the packet
// engine; bulk elephants (size >= bulk_threshold_bytes, or forced kBulk)
// drain in the fluid integrator. Every flow is registered in ONE master
// FlowTracker under a master id; sub-engine completions and deliveries
// are buffered and merged into it in canonical (time, flow id) order at
// every merge barrier, so FCT buckets, Report tables, fingerprints and
// checkpoint/replay see a single coherent network.
//
// Execution: the two engines advance in lockstep chunks. The hybrid's
// own coordinator simulator carries only driver events (progress ticks),
// and each chunk ends at the next such event, so run_to_completion /
// RunGuard hooks always observe a freshly merged tracker. The planes are
// decoupled in the model: short flows do not queue behind elephants and
// vice versa — a documented approximation that mirrors Opera's separate
// low-latency/bulk provisioning.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "core/network.h"
#include "core/opera_network.h"
#include "fluid/fluid_network.h"
#include "sim/simulator.h"
#include "transport/flow.h"

namespace opera::fluid {

class HybridNetwork : public core::Network {
 public:
  // Requires config.kind == kOpera (the factory builder enforces it).
  explicit HybridNetwork(const core::FabricConfig& config);

  // Where a flow runs: bulk by core::flow_class (forced kBulk, or size >=
  // bulk_threshold_bytes) on the fluid engine, the rest on packets.
  enum class Engine : std::uint8_t { kPacket, kFluid };

  std::uint64_t submit_flow(
      std::int32_t src_host, std::int32_t dst_host, std::int64_t size_bytes,
      sim::Time start,
      std::optional<net::TrafficClass> force = std::nullopt) override;

  void run_until(sim::Time t) override;

  [[nodiscard]] sim::Simulator& sim() override { return hybrid_sim_; }
  [[nodiscard]] const sim::Simulator& sim() const override {
    return hybrid_sim_;
  }
  [[nodiscard]] std::uint64_t events_executed() const override {
    return packet_->events_executed() + fluid_->events_executed() +
           hybrid_sim_.events_executed();
  }
  [[nodiscard]] int num_shards() const override {
    return packet_->num_shards();
  }
  [[nodiscard]] transport::FlowTracker& tracker() override { return tracker_; }
  [[nodiscard]] const transport::FlowTracker& tracker() const override {
    return tracker_;
  }
  [[nodiscard]] std::int32_t num_hosts() const override {
    return packet_->num_hosts();
  }
  [[nodiscard]] std::int32_t num_racks() const override {
    return packet_->num_racks();
  }
  [[nodiscard]] std::int32_t rack_of_host(std::int32_t host) const override {
    return packet_->rack_of_host(host);
  }
  [[nodiscard]] std::string describe() const override;

  // Sub-engines, for scenario arming (exp::arm_scenario mirrors storm
  // failures into both planes) and tests.
  [[nodiscard]] core::OperaNetwork& packet_net() { return *packet_; }
  [[nodiscard]] const core::OperaNetwork& packet_net() const { return *packet_; }
  [[nodiscard]] FluidNetwork& fluid_net() { return *fluid_; }
  [[nodiscard]] const FluidNetwork& fluid_net() const { return *fluid_; }

  // Engine assignment per master flow id (ids are 1-based and dense in
  // submission order) — the golden-test surface for the classifier.
  [[nodiscard]] const std::vector<Engine>& assignments() const {
    return assignments_;
  }

  void fingerprint(sim::Fingerprint& fp) const override;
  bool degrade_memory() override { return packet_->degrade_memory(); }

 private:
  struct PendingCompletion {
    sim::Time at;
    std::uint64_t id;  // master id
  };
  struct PendingDelivery {
    sim::Time at;
    std::uint64_t id;  // master id
    std::int64_t bytes;
  };
  struct EngineBuffers {
    // Sub id -> master id (sub ids are 1-based and dense per engine).
    std::vector<std::uint64_t> to_master{0};
    std::vector<PendingCompletion> completions;
    std::vector<PendingDelivery> deliveries;
  };

  // Drains both engines' buffered completion/delivery streams into the
  // master tracker in canonical (time, master id) order. Call only when
  // both engines have reached the same time.
  void merge_pending();
  void hook_sub_tracker(core::Network& net, EngineBuffers& buffers);

  core::FabricConfig config_;
  std::unique_ptr<core::OperaNetwork> packet_;
  std::unique_ptr<FluidNetwork> fluid_;
  // Driver-event coordinator: progress ticks land here, between merge
  // barriers, so hooks see merged state.
  sim::Simulator hybrid_sim_;
  transport::FlowTracker tracker_;
  EngineBuffers packet_buffers_;
  EngineBuffers fluid_buffers_;
  std::vector<Engine> assignments_;
  std::vector<PendingCompletion> merge_completions_;  // merge scratch
  std::vector<PendingDelivery> merge_deliveries_;
};

}  // namespace opera::fluid
