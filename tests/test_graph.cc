#include "topo/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace opera::topo {
namespace {

Graph ring(Vertex n) {
  Graph g(n);
  for (Vertex v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  return g;
}

TEST(Graph, AddEdgeIsSymmetricAndSimple) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // duplicate ignored
  g.add_edge(2, 2);  // self-loop ignored
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(Graph, BfsDistancesOnRing) {
  const Graph g = ring(8);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[4], 4);  // antipode
  EXPECT_EQ(d[7], 1);
}

TEST(Graph, BfsUnreachableIsMinusOne) {
  Graph g(4);
  g.add_edge(0, 1);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], kNoVertex);
  EXPECT_EQ(d[3], kNoVertex);
}

TEST(Graph, Connectivity) {
  EXPECT_TRUE(is_connected(ring(10)));
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(is_connected(g));
}

TEST(Graph, PathStatsOnRing) {
  const auto stats = all_pairs_path_stats(ring(6));
  // Ring of 6: distances 1,1,2,2,3 from each vertex; avg = 9/5.
  EXPECT_DOUBLE_EQ(stats.average, 1.8);
  EXPECT_EQ(stats.worst, 3);
  EXPECT_EQ(stats.connected_pairs, 30u);
  EXPECT_EQ(stats.disconnected_pairs, 0u);
  ASSERT_GE(stats.hop_histogram.size(), 4u);
  EXPECT_EQ(stats.hop_histogram[1], 12u);
  EXPECT_EQ(stats.hop_histogram[2], 12u);
  EXPECT_EQ(stats.hop_histogram[3], 6u);
}

TEST(Graph, PathStatsWithAliveMask) {
  Graph g = ring(6);
  std::vector<bool> alive(6, true);
  alive[3] = false;  // still connected the long way around
  const auto stats = all_pairs_path_stats(g, &alive);
  EXPECT_EQ(stats.disconnected_pairs, 0u);
  EXPECT_EQ(stats.connected_pairs, 20u);  // 5*4 ordered pairs
}

TEST(Graph, PathStatsCountsDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto stats = all_pairs_path_stats(g);
  EXPECT_EQ(stats.connected_pairs, 4u);
  EXPECT_EQ(stats.disconnected_pairs, 8u);
}

// Path statistics against one queue BFS per source, on graphs beyond the
// 64-vertex bit-row width: a long path (diameter 599), a ring with an
// alive mask, a disconnected random-ish graph.
TEST(Graph, PathStatsMatchPerSourceBfs) {
  Graph path(600);
  for (Vertex v = 0; v + 1 < 600; ++v) path.add_edge(v, v + 1);
  Graph split(150);
  for (Vertex v = 0; v < 150; ++v) {
    if (v % 50 != 49) split.add_edge(v, v + 1);
    split.add_edge(v, (v * 7 + 3) % 50 + 50 * (v / 50));
  }
  std::vector<bool> some(200, true);
  for (std::size_t v = 0; v < some.size(); v += 3) some[v] = false;
  const struct {
    const char* name;
    Graph g;
    const std::vector<bool>* alive;
  } cases[] = {{"path600", path, nullptr}, {"ring200+alive", ring(200), &some},
               {"split150", split, nullptr}};
  for (const auto& c : cases) {
    PathStats want;
    double hop_sum = 0.0;
    const Vertex n = c.g.num_vertices();
    const auto counted = [&](Vertex v) {
      return c.alive == nullptr || (*c.alive)[static_cast<std::size_t>(v)];
    };
    for (Vertex src = 0; src < n; ++src) {
      if (!counted(src)) continue;
      const auto dist = bfs_distances(c.g, src);
      for (Vertex dst = 0; dst < n; ++dst) {
        if (dst == src || !counted(dst)) continue;
        const Vertex d = dist[static_cast<std::size_t>(dst)];
        if (d == kNoVertex) {
          ++want.disconnected_pairs;
          continue;
        }
        ++want.connected_pairs;
        hop_sum += d;
        want.worst = std::max(want.worst, d);
        if (static_cast<std::size_t>(d) >= want.hop_histogram.size()) {
          want.hop_histogram.resize(static_cast<std::size_t>(d) + 1, 0);
        }
        ++want.hop_histogram[static_cast<std::size_t>(d)];
      }
    }
    want.average = hop_sum / static_cast<double>(want.connected_pairs);
    const PathStats got = all_pairs_path_stats(c.g, c.alive);
    EXPECT_EQ(got.connected_pairs, want.connected_pairs) << c.name;
    EXPECT_EQ(got.disconnected_pairs, want.disconnected_pairs) << c.name;
    EXPECT_EQ(got.worst, want.worst) << c.name;
    EXPECT_EQ(got.hop_histogram, want.hop_histogram) << c.name;
    EXPECT_EQ(got.average, want.average) << c.name;
  }
}

TEST(Graph, UnionWith) {
  Graph a(4);
  a.add_edge(0, 1);
  Graph b(4);
  b.add_edge(2, 3);
  b.add_edge(0, 1);
  const Graph u = a.union_with(b);
  EXPECT_EQ(u.num_edges(), 2u);
  EXPECT_TRUE(u.has_edge(0, 1));
  EXPECT_TRUE(u.has_edge(2, 3));
}

TEST(Graph, EcmpNextHopsOnGrid) {
  // 4-cycle: two equal-cost next hops from 0 to 2.
  const Graph g = ring(4);
  const auto table = all_pairs_ecmp_next_hops(g);
  const auto hops_02 = table.next_hops(0, 2);
  EXPECT_EQ(hops_02.size(), 2u);
  // Next hops toward adjacent vertex: just that vertex.
  const auto hops_01 = table.next_hops(0, 1);
  ASSERT_EQ(hops_01.size(), 1u);
  EXPECT_EQ(hops_01[0], 1);
}

TEST(Graph, EcmpNextHopsEmptyWhenDisconnected) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto table = all_pairs_ecmp_next_hops(g);
  EXPECT_TRUE(table.next_hops(0, 2).empty());
}

TEST(Graph, EcmpNextHopsAlwaysMakeProgress) {
  // Property: on a random-ish structured graph, every ECMP next hop
  // strictly decreases the BFS distance to the destination.
  Graph g(12);
  for (Vertex v = 0; v < 12; ++v) {
    g.add_edge(v, (v + 1) % 12);
    g.add_edge(v, (v + 4) % 12);
  }
  const auto table = all_pairs_ecmp_next_hops(g);
  for (Vertex dst = 0; dst < 12; ++dst) {
    const auto dist = bfs_distances(g, dst);
    for (Vertex src = 0; src < 12; ++src) {
      if (src == dst) continue;
      ASSERT_FALSE(table.next_hops(src, dst).empty());
      for (const Vertex nh : table.next_hops(src, dst)) {
        EXPECT_EQ(dist[static_cast<std::size_t>(nh)],
                  dist[static_cast<std::size_t>(src)] - 1);
      }
    }
  }
}

}  // namespace
}  // namespace opera::topo
