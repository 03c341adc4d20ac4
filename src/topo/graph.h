// Undirected simple graphs over dense vertex ids, plus the path-length and
// connectivity analyses used throughout the paper's evaluation (Figures 4,
// 11, 16, 17, 18-20).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace opera::topo {

using Vertex = std::int32_t;
inline constexpr Vertex kNoVertex = -1;

class Graph {
 public:
  Graph() = default;
  explicit Graph(Vertex n) : adj_(static_cast<std::size_t>(n)) {}
  // Reserves room for `degree` neighbours per vertex up front.
  Graph(Vertex n, Vertex degree) : Graph(n) {
    for (auto& nbrs : adj_) nbrs.reserve(static_cast<std::size_t>(degree));
  }

  [[nodiscard]] Vertex num_vertices() const { return static_cast<Vertex>(adj_.size()); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  // Adds the undirected edge {a, b}. Self-loops are ignored (they model a
  // rotor matching a rack to itself, which carries no traffic). Duplicate
  // edges are ignored, keeping the graph simple.
  void add_edge(Vertex a, Vertex b);

  [[nodiscard]] bool has_edge(Vertex a, Vertex b) const;
  [[nodiscard]] const std::vector<Vertex>& neighbors(Vertex v) const {
    return adj_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] Vertex degree(Vertex v) const {
    return static_cast<Vertex>(adj_[static_cast<std::size_t>(v)].size());
  }

  // Union of this graph and `other` (same vertex count required).
  [[nodiscard]] Graph union_with(const Graph& other) const;

 private:
  std::vector<std::vector<Vertex>> adj_;
  std::size_t num_edges_ = 0;
};

// BFS hop distances from `src`; unreachable vertices get -1.
[[nodiscard]] std::vector<Vertex> bfs_distances(const Graph& g, Vertex src);

// The ECMP next hops of one (src, dst) cell: the set bits of the cell's
// mask, bit j naming neighbors(src)[j]. Iteration and operator[] both run
// in neighbour-list order, so the k-th next hop is the one named by the
// k-th set bit. A cheap value type (mask + row pointer) that borrows the
// table's neighbour row.
class NextHops {
 public:
  NextHops(std::uint16_t mask, const Vertex* neighbors) : mask_(mask), nbrs_(neighbors) {}

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(mask_));
  }
  [[nodiscard]] bool empty() const { return mask_ == 0; }
  [[nodiscard]] std::uint16_t mask() const { return mask_; }

  // The k-th next hop; k < size().
  [[nodiscard]] Vertex operator[](std::size_t k) const {
    unsigned m = mask_;
    for (; k > 0; --k) m &= m - 1;
    return nbrs_[std::countr_zero(m)];
  }

  class iterator {
   public:
    iterator(unsigned mask, const Vertex* nbrs) : mask_(mask), nbrs_(nbrs) {}
    Vertex operator*() const { return nbrs_[std::countr_zero(mask_)]; }
    iterator& operator++() {
      mask_ &= mask_ - 1;
      return *this;
    }
    bool operator==(const iterator& other) const { return mask_ == other.mask_; }

   private:
    unsigned mask_;
    const Vertex* nbrs_;
  };
  [[nodiscard]] iterator begin() const { return {mask_, nbrs_}; }
  [[nodiscard]] iterator end() const { return {0, nbrs_}; }

 private:
  std::uint16_t mask_;
  const Vertex* nbrs_;
};

// All-pairs shortest-path next-hop sets: next_hops(src, dst) holds every
// neighbour of `src` that lies on some shortest src->dst path (the ECMP
// set), in neighbors(src) order.
//
// Storage is one uint16_t mask per (src, dst) cell plus each source's
// neighbour list: a next-hop set is always a subset of the source's
// neighbours, so bit j of the mask says whether neighbors(src)[j] is in
// it. A forwarding lookup is one mask load plus one neighbour-row load.
// At k=24 (N=432, degree <= 12) a table is ~400 KB (~173 MB for all 432
// slices, so the slice-table cache keeps a window of them). Graphs with
// a vertex of degree above kMaxDegree cannot be represented and are
// rejected at build time.
class EcmpTable {
 public:
  static constexpr Vertex kMaxDegree = 16;

  EcmpTable() = default;

  [[nodiscard]] Vertex num_vertices() const { return n_; }

  // Next hops from src toward dst (empty when dst is unreachable or
  // src == dst).
  [[nodiscard]] NextHops next_hops(Vertex src, Vertex dst) const {
    const auto s = static_cast<std::size_t>(src);
    return {masks_[s * static_cast<std::size_t>(n_) + static_cast<std::size_t>(dst)],
            nbrs_.data() + s * static_cast<std::size_t>(kMaxDegree)};
  }

  // Heap + object bytes held by this table (drives the slice-table cache's
  // memory-budgeted window sizing; see topo/slice_table_cache.h).
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + masks_.capacity() * sizeof(std::uint16_t) +
           nbrs_.capacity() * sizeof(Vertex);
  }

  friend bool operator==(const EcmpTable&, const EcmpTable&) = default;

 private:
  friend void all_pairs_ecmp_next_hops(const Graph& g, EcmpTable& table);
  Vertex n_ = 0;
  std::vector<std::uint16_t> masks_;  // [src * n + dst]
  std::vector<Vertex> nbrs_;  // [src * kMaxDegree + j] = neighbors(src)[j]
};

// Builds the full table from an all-sources bit-parallel BFS (a byte
// distance matrix) and a 16-lane byte compare per neighbour row, about
// V * E / 8 vector operations with no per-source queues. Throws
// std::invalid_argument, naming the vertex, when a vertex's degree exceeds
// EcmpTable::kMaxDegree.
[[nodiscard]] EcmpTable all_pairs_ecmp_next_hops(const Graph& g);
// The same build into an existing table, overwriting all of its content
// and reusing its buffers: the slice-table cache rebuilds evicted tables
// in place instead of allocating (and first-touching) fresh ones.
void all_pairs_ecmp_next_hops(const Graph& g, EcmpTable& table);

// Reference implementation: one queue BFS per destination into nested
// vectors. The parity oracle for EcmpTable (tests/test_routing_parity.cc).
using NestedEcmpTable = std::vector<std::vector<std::vector<Vertex>>>;
[[nodiscard]] NestedEcmpTable all_pairs_ecmp_next_hops_reference(const Graph& g);

struct PathStats {
  double average = 0.0;           // mean hops over connected ordered pairs
  Vertex worst = 0;               // diameter over connected pairs
  std::size_t connected_pairs = 0;
  std::size_t disconnected_pairs = 0;  // ordered pairs with no path
  std::vector<std::size_t> hop_histogram;  // [h] = #ordered pairs at h hops
};

// All-pairs path statistics from one all-sources bit-row BFS (the one
// all_pairs_ecmp_next_hops runs). `alive` (optional) restricts
// the analysis to a subset of vertices (used for failure analysis, where
// failed ToRs are excluded from the connectivity-loss denominator).
[[nodiscard]] PathStats all_pairs_path_stats(
    const Graph& g, const std::vector<bool>* alive = nullptr);

[[nodiscard]] bool is_connected(const Graph& g);

}  // namespace opera::topo
