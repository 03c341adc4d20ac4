// The Opera topology (paper §3): N racks whose u uplinks connect to u
// rotor circuit switches. The complete rack-to-rack graph (plus diagonal)
// is factored into N disjoint symmetric matchings; each rotor switch is
// assigned N/u of them and cycles through its set. Reconfigurations are
// offset so that exactly one switch is "down" at any instant (the paper's
// small-topology regime), giving a sequence of N topology slices per
// cycle. Every slice is the union of u-1 active matchings — an expander
// with high probability — and across a full cycle every rack pair is
// directly connected at least once.
//
// The same rotor structure under the unison schedule is the RotorNet
// baseline (paper §2.3, §5; Mellette et al., SIGCOMM 2017): all switches
// retarget together at every boundary, so each slice instantiates u
// simultaneous matchings, a cycle needs only N/u slices, and the whole
// fabric blinks during reconfiguration.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/checkpoint.h"
#include "topo/graph.h"
#include "topo/one_factorization.h"

namespace opera::topo {

// checkpoint:v1 fields=4
struct OperaParams {
  Vertex num_racks = 108;     // N; determines slice count
  int num_switches = 6;       // u = number of rotor switches = ToR uplinks
  std::uint64_t seed = 1;     // randomization of the factorization
  // Hosts per rack (d = k/2 in the paper's 1:1-provisioned ToR).
  int hosts_per_rack = 6;

  [[nodiscard]] int tor_radix() const { return num_switches + hosts_per_rack; }
  [[nodiscard]] Vertex num_hosts() const {
    return num_racks * static_cast<Vertex>(hosts_per_rack);
  }
};

// RotorNet's user-facing structure (core::FabricConfig::rotornet); it
// lowers to OperaParams under RotorSchedule::kUnison.
// checkpoint:v1 fields=4
struct RotorNetParams {
  Vertex num_racks = 108;
  int num_switches = 6;     // rotor switches (hybrid: one fewer carries bulk)
  bool hybrid = false;      // donate one uplink to a packet-switched core
  std::uint64_t seed = 1;
};

// When the rotor switches reconfigure (paper §3.1.1, Fig. 3):
//   kOffset — Opera: one switch per slice, in turn; the other u-1 carry
//             an always-on expander. N slices per cycle.
//   kUnison — RotorNet: every switch at every boundary, onto its next
//             matching; the fabric is dark for the reconfiguration delay.
//             N/u slices per cycle.
enum class RotorSchedule : std::uint8_t { kOffset, kUnison };

// Slices per cycle: N (offset) or N/u (unison).
[[nodiscard]] inline int schedule_slices(const OperaParams& params,
                                         RotorSchedule schedule) {
  const int n = static_cast<int>(params.num_racks);
  return schedule == RotorSchedule::kUnison ? n / params.num_switches : n;
}

// Failed components for fault-tolerance analysis (paper §5.5, Fig. 11/18).
struct FailureSet {
  std::vector<bool> rack_failed;                  // size N
  std::vector<bool> switch_failed;                // size u
  std::vector<std::vector<bool>> uplink_failed;   // [rack][switch]

  static FailureSet none(Vertex num_racks, int num_switches);
  [[nodiscard]] bool any() const;

  // Checkpoint hook: the full membership, in index order.
  void fingerprint(sim::Fingerprint& fp) const {
    fp.mix_u64(rack_failed.size());
    for (const bool b : rack_failed) fp.mix_bool(b);
    fp.mix_u64(switch_failed.size());
    for (const bool b : switch_failed) fp.mix_bool(b);
    for (const auto& row : uplink_failed) {
      for (const bool b : row) fp.mix_bool(b);
    }
  }
};

class OperaTopology {
 public:
  // The unison schedule skips the expander generate-and-test below (its
  // slices are not routed over), so it keeps the first realization.
  explicit OperaTopology(const OperaParams& params,
                         RotorSchedule schedule = RotorSchedule::kOffset);

  [[nodiscard]] const OperaParams& params() const { return params_; }
  [[nodiscard]] Vertex num_racks() const { return params_.num_racks; }
  [[nodiscard]] int num_switches() const { return params_.num_switches; }

  [[nodiscard]] int num_slices() const { return schedule_slices(params_, schedule_); }

  // The rotor switch that is reconfiguring (down) during `slice`, or -1
  // under the unison schedule, where every switch settles onto this
  // slice's matching and so carries the slice.
  [[nodiscard]] int reconfiguring_switch(int slice) const {
    return schedule_ == RotorSchedule::kUnison ? -1 : slice % params_.num_switches;
  }

  // The rotor switches [first, last) that go dark at the start of `slice`:
  // {slice % u} when offset, all u when unison.
  struct SwitchRange {
    int first;
    int last;
  };
  [[nodiscard]] SwitchRange retargeting_switches(int slice) const {
    if (schedule_ == RotorSchedule::kUnison) return {0, params_.num_switches};
    return {slice % params_.num_switches, slice % params_.num_switches + 1};
  }
  // The slice whose matchings those switches settle onto: the next one
  // when offset (they are that slice's fresh circuits), `slice` itself
  // when unison.
  [[nodiscard]] int settle_slice(int slice) const {
    return schedule_ == RotorSchedule::kUnison ? slice : (slice + 1) % num_slices();
  }

  // Index into matchings() of the matching switch `sw` implements during
  // `slice`. Unison: switches advance together, one matching per slice.
  // Offset: a switch advances to its next matching when a reconfiguration
  // completes, i.e. in the slice after it was the reconfiguring switch;
  // during its reconfiguration slice this returns the outgoing matching
  // (the switch carries no traffic then either way).
  [[nodiscard]] std::size_t matching_index(int sw, int slice) const;

  // The rack that `rack`'s uplink to `sw` connects to during `slice`
  // (== rack when the matching self-matches it; callers must also check
  // reconfiguring_switch()).
  [[nodiscard]] Vertex circuit_peer(int sw, Vertex rack, int slice) const;

  // Union of the u-1 active matchings in `slice` (u matchings if
  // `include_reconfiguring` — used to model the instant after the switch
  // settles — and always u under the unison schedule). Optional failures
  // remove racks/switches/uplinks.
  [[nodiscard]] Graph slice_graph(int slice,
                                  const FailureSet* failures = nullptr,
                                  bool include_reconfiguring = false) const;

  // ECMP next-hop table over slice_graph(slice): the low-latency
  // forwarding state for that slice (paper §4.3's per-slice tables).
  [[nodiscard]] EcmpTable slice_routes(int slice,
                                       const FailureSet* failures = nullptr) const;

  // All matchings (N of them; matchings_[i] is an involution).
  [[nodiscard]] const std::vector<Matching>& matchings() const { return matchings_; }

  // Matching indices assigned to switch `sw`, in cycling order.
  [[nodiscard]] const std::vector<std::size_t>& switch_matchings(int sw) const {
    return assignment_[static_cast<std::size_t>(sw)];
  }

  // True iff every slice graph (under no failures) is connected — the
  // design-time acceptance test from §3.3.
  [[nodiscard]] bool all_slices_connected() const;

  // Slices (within one cycle) during which src and dst have a direct
  // circuit on a non-reconfiguring switch.
  [[nodiscard]] std::vector<int> direct_slices(Vertex src, Vertex dst) const;

 private:
  OperaParams params_;
  RotorSchedule schedule_;
  std::vector<Matching> matchings_;
  std::vector<std::vector<std::size_t>> assignment_;  // [switch] -> matching ids
};

}  // namespace opera::topo
