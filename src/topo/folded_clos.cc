#include "topo/folded_clos.h"

#include <cassert>
#include <stdexcept>

namespace opera::topo {

FoldedClos::FoldedClos(const ClosParams& params) : params_(params) {
  const int k = params_.radix;
  if (k < 4 || k % 2 != 0) {
    throw std::invalid_argument("FoldedClos: radix must be even and >= 4");
  }
  if (k % (params_.oversubscription + 1) != 0) {
    throw std::invalid_argument(
        "FoldedClos: radix must be divisible by F+1 for an integral split");
  }
  const int u = params_.tor_uplinks();
  num_pods_ = params_.pods();
  if (num_pods_ > k) {
    throw std::invalid_argument("FoldedClos: pods exceed core radix");
  }
  num_tors_ = static_cast<Vertex>(params_.num_tors());
  num_aggs_ = static_cast<Vertex>(num_pods_ * u);
  num_cores_ = static_cast<Vertex>(u * (k / 2));

  graph_ = Graph(num_tors_ + num_aggs_ + num_cores_);
  // ToR <-> agg within each pod (full bipartite).
  for (Vertex tor = 0; tor < num_tors_; ++tor) {
    for (const Vertex agg : pod_aggs(tor)) {
      graph_.add_edge(tor, agg_vertex(agg));
    }
  }
  // agg <-> core: agg j of a pod (j in [0, u)) connects to cores
  // [j*k/2, (j+1)*k/2) — one uplink to each core in its group.
  for (Vertex agg = 0; agg < num_aggs_; ++agg) {
    for (const Vertex core : agg_cores(agg)) {
      graph_.add_edge(agg_vertex(agg), core_vertex(core));
    }
  }
}

std::vector<Vertex> FoldedClos::pod_aggs(Vertex tor) const {
  const int u = params_.tor_uplinks();
  const int pod = pod_of_tor(tor);
  std::vector<Vertex> out;
  out.reserve(static_cast<std::size_t>(u));
  for (int j = 0; j < u; ++j) {
    out.push_back(static_cast<Vertex>(pod * u + j));
  }
  return out;
}

std::vector<Vertex> FoldedClos::agg_cores(Vertex agg_index) const {
  const int k = params_.radix;
  const int u = params_.tor_uplinks();
  const int group = static_cast<int>(agg_index) % u;  // position within pod
  std::vector<Vertex> out;
  out.reserve(static_cast<std::size_t>(k / 2));
  for (int c = 0; c < k / 2; ++c) {
    out.push_back(static_cast<Vertex>(group * (k / 2) + c));
  }
  return out;
}

}  // namespace opera::topo
