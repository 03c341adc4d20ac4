// Flow-level (fluid) throughput models for the cost-sweep and mixed-load
// experiments (paper Figures 10, 12, 15).
//
// The paper runs htsim to saturation for these figures; we reproduce the
// shape with rack-level max-min style models (documented substitution in
// DESIGN.md):
//   * folded Clos — rack ingress/egress limited by the oversubscribed
//     uplink capacity (the fabric above is rearrangeably non-blocking)
//   * expander — exact per-edge loads under shortest-path ECMP splitting,
//     plus rack ingress/egress limits
//   * Opera / RotorNet — time-averaged direct circuit capacity per rack
//     pair, with two-hop VLB over leftover capacity at a 2x byte cost
//
// All functions return the max scale factor theta such that theta * demand
// is feasible; demands are in bits/sec at rack granularity.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.h"

namespace opera::fluid {

// Sparse rack-level demand matrix (bits/sec); diagonal ignored.
//
// Stored CSR-style: one column-sorted entry vector per row, so memory is
// O(racks + nonzeros) instead of the dense O(racks^2) doubles that made
// k=24+ (432 racks) fluid sweeps carry ~1.5 MB per matrix — and far worse
// at the 100k-host scales the fluid engine targets. Iteration helpers
// visit entries in row-major, ascending-column order, which is exactly
// the dense loop order, so every consumer's floating-point accumulation
// is bit-identical to the dense form (skipped zeros add 0.0, an FP
// no-op).
class Demand {
 public:
  struct Entry {
    std::int32_t col;
    double value;
  };

  explicit Demand(int num_racks)
      : n_(num_racks), rows_(static_cast<std::size_t>(num_racks)) {}

  [[nodiscard]] int num_racks() const { return n_; }
  [[nodiscard]] double operator()(int a, int b) const;
  void add(int a, int b, double bps);
  [[nodiscard]] double total() const;
  [[nodiscard]] double row_sum(int a) const;
  [[nodiscard]] double col_sum(int b) const;

  // Column-sorted nonzero entries of row `a`.
  [[nodiscard]] const std::vector<Entry>& row(int a) const {
    return rows_[static_cast<std::size_t>(a)];
  }
  // Stored nonzero count and heap footprint (the k=24+ memory probe).
  [[nodiscard]] std::size_t nnz() const;
  [[nodiscard]] std::size_t memory_bytes() const;

  // Canonical workloads (entries are per-rack offered bits/sec given each
  // rack hosts `hosts_per_rack` hosts at `host_rate_bps`).
  static Demand all_to_all(int num_racks, int hosts_per_rack, double host_rate_bps);
  static Demand hotrack(int num_racks, int hosts_per_rack, double host_rate_bps);
  static Demand permutation(int num_racks, int hosts_per_rack, double host_rate_bps,
                            unsigned seed = 1);
  static Demand skew(int num_racks, int hosts_per_rack, double host_rate_bps,
                     double active_fraction, unsigned seed = 1);

 private:
  int n_;
  std::vector<std::vector<Entry>> rows_;  // [row] -> entries sorted by col
};

// Folded Clos with ToR oversubscription F (may be fractional when derived
// from a cost target): per-rack up/down capacity is
// hosts_per_rack * host_rate / F.
[[nodiscard]] double clos_throughput(const Demand& demand, int hosts_per_rack,
                                     double host_rate_bps, double oversubscription);

// Static expander over `g` (u-regular rack graph) with shortest-path ECMP.
// Skewed excess may also ride two-hop Valiant paths (the hybrid routing of
// Kassing et al. [29], which the paper's expander baseline assumes for
// skewed workloads — at the cost of doubling the bandwidth tax on relayed
// bytes); the result is the better of the two routing modes.
[[nodiscard]] double expander_throughput(const Demand& demand, const topo::Graph& g,
                                         double link_rate_bps);

struct RotorModelParams {
  int num_racks = 108;
  int uplinks = 6;          // u
  double link_rate_bps = 10e9;
  // Fraction of uplinks usable at any instant: Opera staggers, so (u-1)/u;
  // RotorNet blinks whole, so its loss shows up in duty_cycle instead.
  double active_fraction = 5.0 / 6.0;
  double duty_cycle = 0.9;  // reconfiguration amortization (r / slice)
  bool enable_vlb = true;
};

// Time-averaged rotor fabric (Opera bulk plane or RotorNet): every rack
// pair gets capacity active_uplinks/N of a link; excess demand may ride
// two-hop VLB over spare direct capacity at twice the byte cost.
// `params.num_racks` must equal `demand.num_racks()`.
[[nodiscard]] double rotor_throughput(const Demand& demand, const RotorModelParams& params);

}  // namespace opera::fluid
