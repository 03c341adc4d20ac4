// Three-tier oversubscribed folded-Clos (fat-tree) topology — the
// cost-equivalent packet-switched baseline (paper §2.3, §5).
//
// Structure for radix k and ToR oversubscription F = d:u —
//   * ToR: d = k*F/(F+1) host ports, u = k/(F+1) uplinks
//   * pod: k/2 ToRs, u aggregation switches; every ToR connects to every
//     agg in its pod
//   * agg: k/2 down (ToRs), k/2 up (cores)
//   * u * k/2 core switches; core c links to one agg per pod
//   * up to k pods (core radix)
// The paper's 648-host 3:1 network is k=12, F=3: 72 ToRs, 36 aggs,
// 18 cores, 12 pods.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.h"

namespace opera::topo {

// checkpoint:v1 fields=3
struct ClosParams {
  int radix = 12;             // k, even
  int oversubscription = 3;   // F, integer d:u ratio
  int num_pods = 0;           // 0 = maximum (k pods)
  [[nodiscard]] int tor_uplinks() const { return radix / (oversubscription + 1); }
  [[nodiscard]] int hosts_per_tor() const { return radix - tor_uplinks(); }
  [[nodiscard]] int pods() const { return num_pods > 0 ? num_pods : radix; }
  [[nodiscard]] int num_tors() const { return pods() * (radix / 2); }
};

class FoldedClos {
 public:
  explicit FoldedClos(const ClosParams& params);

  [[nodiscard]] const ClosParams& params() const { return params_; }
  [[nodiscard]] int num_pods() const { return num_pods_; }
  [[nodiscard]] Vertex num_tors() const { return num_tors_; }
  [[nodiscard]] Vertex num_aggs() const { return num_aggs_; }
  [[nodiscard]] Vertex num_cores() const { return num_cores_; }
  [[nodiscard]] Vertex num_hosts() const {
    return num_tors_ * static_cast<Vertex>(params_.hosts_per_tor());
  }

  // Switch-level graph. Vertex layout: ToRs [0, T), aggs [T, T+A),
  // cores [T+A, T+A+C).
  [[nodiscard]] const Graph& switch_graph() const { return graph_; }
  [[nodiscard]] Vertex agg_vertex(Vertex agg_index) const { return num_tors_ + agg_index; }
  [[nodiscard]] Vertex core_vertex(Vertex core_index) const {
    return num_tors_ + num_aggs_ + core_index;
  }
  [[nodiscard]] bool is_tor(Vertex v) const { return v < num_tors_; }

  [[nodiscard]] int pod_of_tor(Vertex tor) const {
    return static_cast<int>(tor) / (params_.radix / 2);
  }
  // Aggregation switches (indices into [0, num_aggs)) in ToR `tor`'s pod.
  [[nodiscard]] std::vector<Vertex> pod_aggs(Vertex tor) const;
  // Core switches (indices into [0, num_cores)) connected to agg `agg`.
  [[nodiscard]] std::vector<Vertex> agg_cores(Vertex agg_index) const;

 private:
  ClosParams params_;
  int num_pods_ = 0;
  Vertex num_tors_ = 0;
  Vertex num_aggs_ = 0;
  Vertex num_cores_ = 0;
  Graph graph_;
};

}  // namespace opera::topo
