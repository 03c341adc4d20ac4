// fluid::RotorRateLb — the per-slice RotorLB rate allocator behind the
// fluid engine (docs/FLUID.md).
//
// Where the packet engine moves individual packets over per-slice circuit
// grants, the fluid model treats every (src rack, dst rack) flow group as
// a fluid draining at a shared per-flow rate, recomputed once per slice
// from the slice's circuit schedule:
//
//   1. NIC fair share — a rack's hosts_per_rack * link_rate egress
//      (ingress) is split evenly over every flow it sources (sinks),
//      clamped to link_rate (one flow never exceeds a single host NIC).
//   2. Direct circuits first — the group's per-flow rate is capped by the
//      slice's direct a<->b circuit capacity split over the group
//      (#non-reconfiguring, non-failed switches whose matching pairs a
//      with b, times link_rate * duty).
//   3. VLB over leftover — demand the direct circuits cannot carry may
//      ride two-hop Valiant paths over the fabric's spare circuit
//      capacity (relay pool = sum over racks of min(spare up, spare
//      down)), granted proportionally to each group's unmet demand and
//      clamped so no rack's uplink or downlink budget is exceeded. Every
//      VLB byte costs two circuit traversals — the 2x byte tax the
//      accounting exposes.
//
// All loops run in input-group / rack-index order over plain doubles, so
// the allocation is bit-for-bit deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topo/opera_topology.h"

namespace opera::fluid {

// One (src rack, dst rack) flow group; src == dst is an intra-rack group
// (NIC-limited, never touches circuits).
struct GroupDemand {
  std::int32_t src_rack = 0;
  std::int32_t dst_rack = 0;
  std::int64_t flows = 0;
};

// Per-flow deliver rate for one group, split by path type. per_flow ==
// direct_share + vlb_share for inter-rack groups; intra-rack groups carry
// everything in per_flow with both shares zero.
struct GroupRate {
  double per_flow = 0.0;      // bits/sec each flow in the group receives
  double direct_share = 0.0;  // part riding direct a<->b circuits
  double vlb_share = 0.0;     // part riding two-hop VLB (2x byte cost)
};

// Per-slice capacity accounting, exposed for the conservation property
// tests: used_up[r] / used_down[r] never exceed budget[r], and relay_used
// never exceeds relay_pool.
struct RateUsage {
  std::vector<double> budget;     // per-rack circuit capacity (either dir)
  std::vector<double> used_up;    // per-rack egress circuit usage
  std::vector<double> used_down;  // per-rack ingress circuit usage
  double relay_pool = 0.0;        // VLB relay capacity this slice
  double relay_used = 0.0;        // VLB deliver rate actually granted
};

class RotorRateLb {
 public:
  struct Params {
    double link_rate_bps = 10e9;
    // Usable fraction of a slice (guard-adjusted; match the packet
    // engine's OperaConfig::slice_bulk_budget duty factor).
    double duty = 1.0;
    int hosts_per_rack = 6;
    bool enable_vlb = true;
  };

  RotorRateLb(const topo::OperaTopology& topo, const Params& params);

  // Rates for `groups` (sorted by (src, dst), flows > 0) during cyclic
  // slice `slice`, honoring `failures` (nullptr: nothing has failed). The
  // result is aligned with `groups`; `usage` (optional) receives the
  // capacity accounting. Any slice may follow any other, and `failures`
  // may change between calls; the result depends on the arguments alone.
  [[nodiscard]] std::vector<GroupRate> allocate(
      int slice, const std::vector<GroupDemand>& groups,
      const topo::FailureSet* failures = nullptr, RateUsage* usage = nullptr);

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  // Brings the circuit row to `slice` under `failures`: every column when
  // the failure set differs from the row's (or on the first call), else
  // only the switches whose matching or reconfiguring state differs
  // between the row's slice and `slice` — two per consecutive offset
  // slice.
  void refresh_row(int slice, const topo::FailureSet* failures);

  const topo::OperaTopology& topo_;
  Params params_;
  // The circuit row kept between calls: live_[r * u + sw] is
  // topo::OperaTopology::live_peer(sw, r, row_slice_, failures), and
  // live_count_[r] counts rack r's live circuits.
  std::vector<topo::Vertex> live_;
  std::vector<int> live_count_;
  int row_slice_ = -1;  // -1: the row is not built yet
  std::optional<topo::FailureSet> row_failures_;  // nullopt: none applied
  // budget_sums_[c]: c circuit rates added one at a time, as a sum over
  // the row's circuits adds them, so a budget is the same double either
  // way.
  std::vector<double> budget_sums_;
};

}  // namespace opera::fluid
