// fluid::FluidNetwork — the flow-granularity Opera backend (docs/FLUID.md).
//
// A core::Network that never moves a packet: flows are grouped by
// (src rack, dst rack) and each group drains as a fluid at the per-flow
// rate fluid::RotorRateLb assigns it, recomputed at every slice boundary
// from the slice's circuit schedule and frozen in between. Each group
// keeps a virtual drain counter V (cumulative bytes a flow that has been
// in the group since V=0 would have delivered); a flow joining at V0 with
// size S completes exactly when V reaches V0 + S, so one counter plus a
// min-heap of completion thresholds tracks any number of flows in O(log)
// per flow. That is what makes million-flow, multi-second scenarios
// tractable where the packet engine would need ~10^10 packet events.
//
// Determinism: the integrator is single-threaded (the threads knob is
// accepted and ignored, so --threads={1,2,4} are trivially bit-identical)
// and every container it iterates is ordered. Completions discovered
// while advancing groups are buffered and reported in canonical
// (time, flow id) order at each slice boundary, so the FlowTracker
// stream, fingerprints, and checkpoint/replay behave exactly like the
// packet engine's.
//
// Accuracy: rates are frozen within a slice (capacity freed by a
// completion redistributes at the next boundary), new groups wait for
// their first boundary, and failures take effect at the next boundary
// instead of riding the packet engine's hello-protocol delay. Each
// approximation is bounded by one slice (~99 us); the parity oracle
// (tests/test_fluid_parity.cc) measures the resulting FCT error against
// the packet engine on small fabrics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/fabric.h"
#include "core/network.h"
#include "fluid/rotor_rate_lb.h"
#include "sim/simulator.h"
#include "topo/opera_topology.h"
#include "transport/flow.h"

namespace opera::fluid {

// Registers the fluid and hybrid engine builders with
// core::NetworkFactory (idempotent). exp::Experiment calls this on
// construction; direct factory users with engine != packet must call it
// themselves. Both engines require FabricKind::kOpera.
void register_fluid_engines();

class FluidNetwork : public core::Network {
 public:
  explicit FluidNetwork(const core::OperaConfig& config);

  std::uint64_t submit_flow(
      std::int32_t src_host, std::int32_t dst_host, std::int64_t size_bytes,
      sim::Time start,
      std::optional<net::TrafficClass> force = std::nullopt) override;

  // Runs to `t` and catches the fluid state up to the stop time, so the
  // tracker is exact at return (mid-run progress hooks may observe
  // completion counts up to one slice stale; see header comment).
  void run_until(sim::Time t) override;

  [[nodiscard]] sim::Simulator& sim() override { return sim_; }
  [[nodiscard]] const sim::Simulator& sim() const override { return sim_; }
  [[nodiscard]] transport::FlowTracker& tracker() override { return tracker_; }
  [[nodiscard]] const transport::FlowTracker& tracker() const override {
    return tracker_;
  }
  [[nodiscard]] std::int32_t num_hosts() const override {
    return static_cast<std::int32_t>(config_.topology.num_hosts());
  }
  [[nodiscard]] std::int32_t num_racks() const override {
    return static_cast<std::int32_t>(config_.topology.num_racks);
  }
  [[nodiscard]] std::int32_t rack_of_host(std::int32_t host) const override {
    return host / config_.topology.hosts_per_rack;
  }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const core::OperaConfig& config() const { return config_; }
  [[nodiscard]] const topo::OperaTopology& topology() const { return topo_; }
  [[nodiscard]] const RotorRateLb& allocator() const { return allocator_; }

  // Runtime fault injection, mirroring core::OperaNetwork's API so the
  // scenario engine and the parity tests drive both engines identically.
  // The fluid approximation: capacity disappears/returns at the next
  // slice boundary (no hello-protocol dissemination delay).
  void inject_uplink_failure(std::int32_t rack, int rotor_switch);
  void recover_uplink(std::int32_t rack, int rotor_switch);
  void inject_switch_failure(int rotor_switch);
  void recover_switch(int rotor_switch);
  [[nodiscard]] const topo::FailureSet& failures() const { return failures_; }

  // Delivered-byte accounting by path type. vlb_bytes are bytes delivered
  // via two-hop VLB; they consumed 2x that in circuit capacity, so total
  // circuit traversal bytes = direct_bytes + 2 * vlb_bytes.
  struct FluidStats {
    double direct_bytes = 0.0;
    double vlb_bytes = 0.0;
    double intra_bytes = 0.0;
    [[nodiscard]] double circuit_bytes() const {
      return direct_bytes + 2.0 * vlb_bytes;
    }
  };
  [[nodiscard]] const FluidStats& fluid_stats() const { return stats_; }
  // Live flow groups (for tests and memory probes).
  [[nodiscard]] std::size_t active_groups() const { return groups_.size(); }

  // Checkpoint hook: base digest plus the full fluid rate state — every
  // group's drain counter, rates, and pending thresholds in key order,
  // the byte counters, and the failure set.
  void fingerprint(sim::Fingerprint& fp) const override;

 private:
  // One completion threshold on a group's virtual drain counter.
  struct FlowMark {
    double threshold = 0.0;  // V (bytes) at which the flow completes
    std::uint64_t id = 0;
  };
  struct Group {
    std::int64_t key = 0;  // src_rack * num_racks + dst_rack
    std::int32_t src_rack = 0;
    std::int32_t dst_rack = 0;
    std::int64_t live = 0;      // flows currently draining
    double drained = 0.0;       // V: per-flow cumulative bytes
    sim::Time updated;          // time `drained` is valid at
    GroupRate rate;             // frozen for the current slice
    std::vector<FlowMark> heap;  // min-heap by (threshold, id)
  };

  // Advances one group to `t` under its frozen rate, popping completion
  // thresholds into pending_ and accruing delivered-byte stats.
  void advance_group(Group& group, sim::Time t);
  // Splits `live * per_flow_bytes` delivered bytes into the stats
  // counters by the group's direct/VLB rate mix.
  void accrue(Group& group, double per_flow_bytes);
  // Advances every group to `t`, reports pending completions in
  // (time, id) order, drops empty groups, and recomputes rates.
  void sweep_to(sim::Time t, bool recompute_rates);
  void recompute_rates(int slice);
  // The group of (src, dst) racks, created rateless (its rate comes at
  // the next ordered pass) if it does not exist yet.
  Group& group_of(std::int32_t src_rack, std::int32_t dst_rack, sim::Time now);
  // Sorts the groups created since the last ordered pass into place.
  // Moves groups: no Group& may be held across it (nor across
  // sweep_to, recompute_rates or arm_tick, which call it).
  void merge_new_groups();
  // Schedules the earliest pending start, unless it is already scheduled.
  void arm_start();
  // The start event: begins the earliest pending flow, re-arms the next.
  void on_start_event();
  void on_flow_start(std::uint64_t id);
  void on_tick();
  void arm_tick(sim::Time now);
  [[nodiscard]] sim::Time next_boundary(sim::Time t) const;
  [[nodiscard]] int slice_at(sim::Time t) const;

  core::OperaConfig config_;
  topo::OperaTopology topo_;
  RotorRateLb allocator_;
  sim::Simulator sim_;
  transport::FlowTracker tracker_;
  topo::FailureSet failures_;
  // failures_.any(), kept current by the inject/recover calls so a slice
  // allocation skips the per-circuit failure test on a healthy fabric.
  bool any_failure_ = false;

  // Live groups: [0, sorted_) ascending by key, then the groups created
  // since the last ordered pass, in creation order. merge_new_groups()
  // folds that tail in at the start of every sweep and rate
  // recomputation, so every walk that sums doubles (stats, allocation)
  // or digests state runs in key order, as it did over a std::map.
  std::vector<Group> groups_;
  std::size_t sorted_ = 0;
  struct PendingCompletion {
    sim::Time at;
    std::uint64_t id;
  };
  std::vector<PendingCompletion> pending_;
  std::vector<GroupDemand> scratch_demands_;  // recompute_rates scratch

  // Pending flow starts. Each keeps the (time, order key) its own start
  // event would have had, but only the earliest is in the event queue, so
  // a pending start costs 24 bytes instead of a queued event. Starts
  // submitted in (at, key) order append to `arrivals_` (consumed from
  // arrivals_head_); the rest wait in the min-heap `late_arrivals_`.
  struct Arrival {
    sim::Time at;
    std::uint64_t key = 0;
    std::uint64_t id = 0;
    // Start order: (time, order key), the event queue's dispatch order.
    [[nodiscard]] bool before(const Arrival& other) const {
      return at < other.at || (at == other.at && key < other.key);
    }
    // Heap comparator: a max-heap on `after` pops in start order.
    static bool after(const Arrival& a, const Arrival& b) { return b.before(a); }
  };
  std::vector<Arrival> arrivals_;
  std::size_t arrivals_head_ = 0;
  std::vector<Arrival> late_arrivals_;
  std::optional<Arrival> armed_;  // the start in the event queue
  sim::EventHandle start_event_;
  bool tick_armed_ = false;
  FluidStats stats_;
};

}  // namespace opera::fluid
