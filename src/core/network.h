// core::Network — the polymorphic fabric interface every packet-level
// network in this repo implements (Opera, folded Clos, static expander,
// RotorNet). The paper's evaluation is a *comparison* across these four
// fabrics; this interface is what lets one experiment driver submit the
// same workload to any of them:
//
//   auto net = core::NetworkFactory::build(cfg);   // cfg: core::FabricConfig
//   net->submit_flow(src, dst, bytes, at);
//   net->run_to_completion(sim::Time::ms(50));
//   net->tracker().fct_us(...);                    // measurements
//
// See core/fabric.h for FabricConfig / NetworkFactory and src/exp/ for the
// Experiment driver built on top.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "net/packet.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "transport/flow.h"

namespace opera::core {

// Maps a workload host pair generated for one network's host count onto
// another network's host range: ids wrap modulo `num_hosts`, and a
// post-wrap collision bumps the destination to the next host. This is the
// cross-fabric remap every bench binary used to hand-roll inline; it is
// the identity (given src != dst) whenever both ids are already in range.
[[nodiscard]] std::pair<std::int32_t, std::int32_t> remap_host_pair(
    std::int32_t src, std::int32_t dst, std::int32_t num_hosts);

// The size rule every fabric and engine classifies a flow by: bulk at or
// above `bulk_threshold_bytes`, low-latency below, unless `force` names a
// class (application-based tagging, paper §3.4).
[[nodiscard]] inline net::TrafficClass flow_class(
    std::int64_t size_bytes, std::int64_t bulk_threshold_bytes,
    std::optional<net::TrafficClass> force = std::nullopt) {
  if (force.has_value()) return *force;
  return size_bytes >= bulk_threshold_bytes ? net::TrafficClass::kBulk
                                            : net::TrafficClass::kLowLatency;
}

class Network {
 public:
  Network() = default;
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers the flow and schedules its start; returns the flow id.
  // Classification (low-latency vs bulk) is by size against the fabric's
  // bulk threshold unless `force` is given (application-based tagging,
  // paper §3.4).
  virtual std::uint64_t submit_flow(
      std::int32_t src_host, std::int32_t dst_host, std::int64_t size_bytes,
      sim::Time start, std::optional<net::TrafficClass> force = std::nullopt) = 0;

  // submit_flow with the pair first remapped into this network's host
  // range (see remap_host_pair): use when replaying a workload generated
  // for a fabric with a different host count.
  std::uint64_t submit_remapped(std::int32_t src_host, std::int32_t dst_host,
                                std::int64_t size_bytes, sim::Time start,
                                std::optional<net::TrafficClass> force = std::nullopt);

  // Runs the event loop until simulated time `t`.
  virtual void run_until(sim::Time t) = 0;

  // --- Progress / early-stop driving -------------------------------------
  // The rotor fabrics keep slice-boundary events pending forever, so a
  // plain run_until always burns wall-clock to the horizon even when the
  // last flow finished long ago. These drivers poll a hook on a simulated-
  // time interval and stop the run as soon as it asks to.

  struct RunStatus {
    sim::Time ended_at;          // simulated time the run stopped at
    bool stopped_early = false;  // true if the hook stopped it before `horizon`
  };

  // Called every `interval` of simulated time; return true to stop the run.
  using ProgressHook = std::function<bool(Network&)>;
  RunStatus run_with_progress(sim::Time horizon, sim::Time interval,
                              const ProgressHook& hook);

  // Runs until `horizon` or until every submitted flow has completed,
  // whichever comes first (flows submitted from completion hooks extend
  // the run). Completion statistics are identical to run_until(horizon).
  RunStatus run_to_completion(sim::Time horizon,
                              sim::Time check_interval = sim::Time::us(500));

  // --- Introspection -----------------------------------------------------
  // Total executed events across every event loop the fabric runs — the
  // coordinator plus all shards for sharded fabrics, the single loop
  // otherwise. Prefer this over sim().events_executed(), which for a
  // sharded fabric counts only the coordinator's (global) events.
  [[nodiscard]] virtual std::uint64_t events_executed() const {
    return sim().events_executed();
  }
  // Shard count of the execution engine (1 = the classic single queue).
  [[nodiscard]] virtual int num_shards() const { return 1; }
  [[nodiscard]] virtual sim::Simulator& sim() = 0;
  [[nodiscard]] virtual const sim::Simulator& sim() const = 0;
  [[nodiscard]] virtual transport::FlowTracker& tracker() = 0;
  [[nodiscard]] virtual const transport::FlowTracker& tracker() const = 0;
  [[nodiscard]] virtual std::int32_t num_hosts() const = 0;
  [[nodiscard]] virtual std::int32_t num_racks() const = 0;
  [[nodiscard]] virtual std::int32_t rack_of_host(std::int32_t host) const = 0;
  // One-line human description, e.g. "Opera (108 racks x 6 hosts, 6 rotors)".
  [[nodiscard]] virtual std::string describe() const = 0;

  // --- Checkpoint / guardrail hooks --------------------------------------
  // Mixes the fabric's partition-invariant state into `fp`: clock, total
  // event count and the canonical completion stream in the base, plus
  // whatever per-fabric counters an override adds. Equal digests at equal
  // barrier-aligned times are the checkpoint contract: a restored run that
  // reaches the checkpoint time must reproduce this digest exactly, at any
  // --threads=N. Call only from a barrier (no shard phase in flight);
  // overrides must never digest partition-dependent state (per-shard
  // clocks, endpoint pools, mailboxes).
  virtual void fingerprint(sim::Fingerprint& fp) const;

  // Memory-pressure degradation (exp::RunGuard): release memory without
  // changing simulation output — e.g. Opera shrinks its slice-table window
  // (content-neutral, parity-tested). Returns true if anything was freed;
  // the default has nothing to give back. Call only from a barrier.
  virtual bool degrade_memory() { return false; }
};

}  // namespace opera::core
