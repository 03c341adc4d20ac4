#include "topo/graph.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace opera::topo {

void Graph::add_edge(Vertex a, Vertex b) {
  assert(a >= 0 && a < num_vertices() && b >= 0 && b < num_vertices());
  if (a == b) return;
  if (has_edge(a, b)) return;
  adj_[static_cast<std::size_t>(a)].push_back(b);
  adj_[static_cast<std::size_t>(b)].push_back(a);
  ++num_edges_;
}

bool Graph::has_edge(Vertex a, Vertex b) const {
  const auto& nbrs = adj_[static_cast<std::size_t>(a)];
  return std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
}

Graph Graph::union_with(const Graph& other) const {
  assert(num_vertices() == other.num_vertices());
  Graph out(num_vertices());
  for (Vertex v = 0; v < num_vertices(); ++v) {
    for (const Vertex w : neighbors(v)) {
      if (v < w) out.add_edge(v, w);
    }
    for (const Vertex w : other.neighbors(v)) {
      if (v < w) out.add_edge(v, w);
    }
  }
  return out;
}

std::vector<Vertex> bfs_distances(const Graph& g, Vertex src) {
  std::vector<Vertex> dist(static_cast<std::size_t>(g.num_vertices()), kNoVertex);
  dist[static_cast<std::size_t>(src)] = 0;
  // The frontier doubles as the BFS queue (`head` chases push_back).
  std::vector<Vertex> frontier{src};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const Vertex v = frontier[head];
    const Vertex dv = dist[static_cast<std::size_t>(v)];
    for (const Vertex w : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(w)] == kNoVertex) {
        dist[static_cast<std::size_t>(w)] = dv + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

namespace {

// 16 byte lanes, one per destination: a GCC/Clang vector extension that
// compiles to one SIMD register (SSE2 on x86-64, NEON on arm64).
using ByteLanes = std::uint8_t __attribute__((vector_size(16)));

// The distance rows below are filled through uint64_t halves, lane b of a
// half being its byte b in memory.
static_assert(std::endian::native == std::endian::little,
              "lane layout assumes a little-endian host");

// kSpread[bits]: 0xFF in byte b for every set bit b of `bits`.
constexpr auto kSpread = [] {
  std::array<std::uint64_t, 256> spread{};
  for (std::size_t bits = 0; bits < 256; ++bits) {
    for (unsigned b = 0; b < 8; ++b) {
      if ((bits >> b) & 1U) spread[bits] |= 0xFFULL << (8 * b);
    }
  }
  return spread;
}();

// 0xFF in lane e for every set bit e of the low 16 bits of `bits`.
ByteLanes spread16(std::uint64_t bits) {
  const std::uint64_t halves[2] = {kSpread[bits & 0xFF], kSpread[(bits >> 8) & 0xFF]};
  ByteLanes lanes;
  std::memcpy(&lanes, halves, sizeof lanes);
  return lanes;
}

// `b` in every lane.
ByteLanes splat(std::uint8_t b) {
  ByteLanes lanes;
  std::memset(&lanes, b, sizeof lanes);
  return lanes;
}

// kBit[b]: 1 << b in every lane.
constexpr ByteLanes kBit[8] = {ByteLanes{} + 1,  ByteLanes{} + 2,  ByteLanes{} + 4,
                               ByteLanes{} + 8,  ByteLanes{} + 16, ByteLanes{} + 32,
                               ByteLanes{} + 64, ByteLanes{} + 128};

// 0xFF in every lane where a == b, 0x00 elsewhere.
ByteLanes lanes_equal(ByteLanes a, ByteLanes b) { return (ByteLanes)(a == b); }

// One level-synchronous BFS from every source at once on 64-bit bit rows
// of `words` words: the vertices at exactly distance d from v are the
// union of its neighbours' distance-(d-1) frontiers, minus what v already
// reached. Calls visit(v, d, row) for every v and d >= 1 with the bit row
// of the vertices at exactly distance d from v; stops after the first
// level that reaches nothing new.
template <typename Visit>
void for_each_bfs_level(const Graph& g, std::size_t words, Visit&& visit) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::uint64_t> reach(n * words, 0);
  std::vector<std::uint64_t> frontier(n * words, 0);
  std::vector<std::uint64_t> next(n * words, 0);
  for (std::size_t v = 0; v < n; ++v) {
    reach[v * words + v / 64] = frontier[v * words + v / 64] = 1ULL << (v % 64);
  }
  bool grew = true;
  for (unsigned d = 1; grew; ++d) {
    grew = false;
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t* out = next.data() + v * words;
      std::fill(out, out + words, 0);
      for (const Vertex w : g.neighbors(static_cast<Vertex>(v))) {
        const std::uint64_t* in = frontier.data() + static_cast<std::size_t>(w) * words;
        for (std::size_t i = 0; i < words; ++i) out[i] |= in[i];
      }
      std::uint64_t* seen = reach.data() + v * words;
      for (std::size_t i = 0; i < words; ++i) {
        out[i] &= ~seen[i];
        seen[i] |= out[i];
        grew |= out[i] != 0;
      }
      visit(v, d, static_cast<const std::uint64_t*>(out));
    }
    frontier.swap(next);
  }
}

// All-pairs hop distances, one byte lane per (v, x): lane x % 16 of
// dist[v * row + x / 16] holds d(v, x) mod 256, or 0xFF when x is
// unreachable from v (also the padding lanes past n). Rows hold
// row = 4 * ceil(n / 64) vectors.
std::vector<ByteLanes> lane_distances(const Graph& g, std::size_t row) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t words = row / 4;
  std::vector<ByteLanes> dist(n * row, ~ByteLanes{});
  for (std::size_t v = 0; v < n; ++v) dist[v * row + v / 16][v % 16] = 0;
  for_each_bfs_level(g, words, [&](std::size_t v, unsigned d, const std::uint64_t* bits) {
    // XOR into a 0xFF lane leaves d there.
    const ByteLanes level = splat(static_cast<std::uint8_t>(0xFF ^ d));
    ByteLanes* lanes = dist.data() + v * row;
    for (std::size_t i = 0; i < words; ++i) {
      if (bits[i] == 0) continue;
      for (unsigned q = 0; q < 4; ++q) {
        lanes[i * 4 + q] ^= spread16(bits[i] >> (16 * q)) & level;
      }
    }
  });
  return dist;
}

}  // namespace

EcmpTable all_pairs_ecmp_next_hops(const Graph& g) {
  EcmpTable table;
  all_pairs_ecmp_next_hops(g, table);
  return table;
}

void all_pairs_ecmp_next_hops(const Graph& g, EcmpTable& table) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  constexpr Vertex kMaxDegree = EcmpTable::kMaxDegree;
  table.n_ = g.num_vertices();
  table.masks_.assign(n * n, 0);
  table.nbrs_.assign(n * static_cast<std::size_t>(kMaxDegree), kNoVertex);
  for (Vertex v = 0; v < table.n_; ++v) {
    if (g.degree(v) > kMaxDegree) {
      throw std::invalid_argument(
          "EcmpTable: vertex " + std::to_string(v) + " has degree " +
          std::to_string(g.degree(v)) + "; next-hop masks hold at most " +
          std::to_string(kMaxDegree) + " neighbours");
    }
    const auto& nbrs = g.neighbors(v);
    std::copy(nbrs.begin(), nbrs.end(),
              table.nbrs_.begin() + static_cast<std::ptrdiff_t>(v) * kMaxDegree);
  }

  // Neighbour nb of src is a shortest-path next hop toward dst iff
  // d(nb, dst) == d(src, dst) - 1. The lane distances are mod 256, which
  // keeps that compare exact: nb and src are adjacent, so their distances
  // to dst differ by at most one, and they share a component, so both are
  // unreachable (equal sentinels, never one apart) or neither is.
  // dst == src gives 1 != 0 - 1. Bit j of a mask lands in byte plane j / 8
  // (lanes = destinations), and the two planes widen to uint16_t.
  const std::size_t row = (n + 63) / 64 * 4;
  const std::vector<ByteLanes> dist = lane_distances(g, row);
  std::vector<const ByteLanes*> nb_rows;
  for (std::size_t src = 0; src < n; ++src) {
    const ByteLanes* src_row = dist.data() + src * row;
    nb_rows.clear();
    for (const Vertex nb : g.neighbors(static_cast<Vertex>(src))) {
      nb_rows.push_back(dist.data() + static_cast<std::size_t>(nb) * row);
    }
    const std::size_t low = std::min<std::size_t>(nb_rows.size(), 8);
    std::uint16_t* masks = table.masks_.data() + src * n;
    for (std::size_t v = 0; v * 16 < n; ++v) {
      const ByteLanes want = src_row[v] - 1;
      ByteLanes lo{};
      ByteLanes hi{};
      for (std::size_t j = 0; j < low; ++j) {
        lo |= lanes_equal(nb_rows[j][v], want) & kBit[j];
      }
      for (std::size_t j = 8; j < nb_rows.size(); ++j) {
        hi |= lanes_equal(nb_rows[j][v], want) & kBit[j - 8];
      }
      std::uint16_t wide[16];
      for (unsigned e = 0; e < 16; ++e) {
        wide[e] = static_cast<std::uint16_t>(lo[e] | hi[e] << 8);
      }
      std::memcpy(masks + v * 16, wide,
                  sizeof(std::uint16_t) * std::min<std::size_t>(16, n - v * 16));
    }
  }
}

NestedEcmpTable all_pairs_ecmp_next_hops_reference(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  NestedEcmpTable next(n, std::vector<std::vector<Vertex>>(n));
  for (Vertex dst = 0; dst < g.num_vertices(); ++dst) {
    const auto dist_from_dst = bfs_distances(g, dst);
    for (Vertex src = 0; src < g.num_vertices(); ++src) {
      if (src == dst) continue;
      const Vertex d_src = dist_from_dst[static_cast<std::size_t>(src)];
      if (d_src == kNoVertex) continue;
      auto& hops = next[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
      for (const Vertex nb : g.neighbors(src)) {
        if (dist_from_dst[static_cast<std::size_t>(nb)] == d_src - 1) {
          hops.push_back(nb);
        }
      }
    }
  }
  return next;
}

PathStats all_pairs_path_stats(const Graph& g, const std::vector<bool>* alive) {
  PathStats stats;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> counted(words, 0);  // alive vertices as a bit row
  std::size_t num_alive = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (alive != nullptr && !(*alive)[v]) continue;
    counted[v / 64] |= 1ULL << (v % 64);
    ++num_alive;
  }
  // Pair counts and hop sums are integers, so the average does not depend
  // on the order the pairs are visited in.
  double hop_sum = 0.0;
  for_each_bfs_level(g, words, [&](std::size_t src, unsigned d,
                                   const std::uint64_t* bits) {
    if ((counted[src / 64] >> (src % 64) & 1U) == 0) return;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < words; ++i) {
      pairs += static_cast<std::size_t>(std::popcount(bits[i] & counted[i]));
    }
    if (pairs == 0) return;
    stats.connected_pairs += pairs;
    hop_sum += static_cast<double>(d) * static_cast<double>(pairs);
    stats.worst = std::max(stats.worst, static_cast<Vertex>(d));
    if (d >= stats.hop_histogram.size()) stats.hop_histogram.resize(d + 1, 0);
    stats.hop_histogram[d] += pairs;
  });
  const std::size_t ordered_pairs = num_alive * (std::max<std::size_t>(num_alive, 1) - 1);
  stats.disconnected_pairs = ordered_pairs - stats.connected_pairs;
  if (stats.connected_pairs > 0) {
    stats.average = hop_sum / static_cast<double>(stats.connected_pairs);
  }
  return stats;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](Vertex d) { return d == kNoVertex; });
}

}  // namespace opera::topo
