// topo::SliceTableCache unit + property tests: resolved window sizing,
// batched prefetch-ahead behavior and eviction by window position,
// invalidation, and — the load-bearing property — that a cached lookup, in
// fresh or recycled storage, is always bit-identical to a direct build.
#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"
#include "support/support.h"
#include "topo/opera_topology.h"
#include "topo/slice_table_cache.h"

namespace opera::topo {
namespace {

SliceTableCache::Builder builder_for(const OperaTopology& topo,
                                     const FailureSet** failures = nullptr) {
  return [&topo, failures](int s, EcmpTable& table) {
    topo.slice_routes(s, failures != nullptr ? *failures : nullptr, table);
  };
}

TEST(SliceTableCache, ExplicitWindowIsClampedToMinAndSliceCount) {
  const OperaTopology topo(support::Testbed{}.topology());
  SliceTableCache tiny(topo.num_slices(), 1, builder_for(topo));
  EXPECT_EQ(tiny.window(), SliceTableCache::kMinWindow);
  SliceTableCache huge(topo.num_slices(), 10'000, builder_for(topo));
  EXPECT_EQ(huge.window(), topo.num_slices());
  EXPECT_TRUE(huge.eager());
}

TEST(SliceTableCache, AutoModeEagerWhenBudgetFits) {
  const OperaTopology topo(support::Testbed{}.topology());
  SliceTableCache cache(topo.num_slices(), 0, builder_for(topo));
  EXPECT_TRUE(cache.eager());
  // Everything was built up front, and a boundary builds nothing.
  for (int s = 0; s < topo.num_slices(); ++s) {
    ASSERT_NE(cache.peek(s), nullptr) << "slice " << s;
    EXPECT_EQ(*cache.peek(s), topo.slice_routes(s)) << "slice " << s;
  }
  const auto built = cache.stats().prefetch_builds;
  cache.prefetch(5);
  EXPECT_EQ(cache.stats().prefetch_builds, built);
  EXPECT_EQ(cache.stats().resident, static_cast<std::size_t>(topo.num_slices()));
}

TEST(SliceTableCache, AutoModeWindowsUnderTightBudget) {
  // Tables of a 1024-vertex circulant graph are ~2.1 MB each, so sixteen
  // of them overflow the 16 MB budget: the auto window must land at what
  // fits, far below the slice count, and a rotation must stay within it.
  // (Content is irrelevant here; every slice gets the same table.)
  Graph g(1024);
  for (Vertex v = 0; v < 1024; ++v) {
    g.add_edge(v, (v + 1) % 1024);
    g.add_edge(v, (v + 32) % 1024);
  }
  const std::size_t per_table = all_pairs_ecmp_next_hops(g).memory_bytes();
  constexpr int kSlices = 16;
  SliceTableCache cache(kSlices, 0, [&g](int, EcmpTable& table) {
    all_pairs_ecmp_next_hops(g, table);
  });
  EXPECT_FALSE(cache.eager());
  EXPECT_EQ(cache.window(),
            static_cast<int>(SliceTableCache::kDefaultBudgetBytes / per_table));
  EXPECT_LT(cache.window(), kSlices);
  for (int abs = 0; abs < 2 * kSlices; ++abs) {
    cache.prefetch(abs % kSlices);
    EXPECT_LE(cache.stats().resident, static_cast<std::size_t>(cache.window()));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.stats().peak_resident_bytes, SliceTableCache::kDefaultBudgetBytes);
}

TEST(SliceTableCache, PrefetchKeepsRotationLookupsHit) {
  const OperaTopology topo(support::Testbed{}.topology());
  SliceTableCache cache(topo.num_slices(), 5, builder_for(topo));
  // Walk two full cycles the way the network does: prefetch at each
  // boundary, then read the current and next slice (drain window).
  for (int abs = 0; abs < 2 * topo.num_slices(); ++abs) {
    const int s = abs % topo.num_slices();
    cache.prefetch(s);
    EXPECT_NE(cache.peek(s), nullptr) << "slice " << s;
    EXPECT_NE(cache.peek((s + 1) % topo.num_slices()), nullptr) << "slice " << s;
  }
  EXPECT_LE(cache.stats().resident, static_cast<std::size_t>(cache.window()));
}

TEST(SliceTableCache, PeekIsBookkeepingFreeAndNullWhenEvicted) {
  const OperaTopology topo(support::Testbed{}.topology());
  SliceTableCache cache(topo.num_slices(), 4, builder_for(topo));
  EXPECT_EQ(cache.peek(0), nullptr);  // nothing built yet
  cache.prefetch(0);
  const EcmpTable* built = cache.peek(0);
  ASSERT_NE(built, nullptr);
  const auto before = cache.stats();
  EXPECT_EQ(cache.peek(0), built);
  EXPECT_EQ(cache.stats().prefetch_builds, before.prefetch_builds)
      << "peek must not build";
  EXPECT_EQ(cache.stats().resident, before.resident);
  // Rotate past the window: slice 0 falls out, peek reports the eviction.
  for (int s = 1; s <= 4; ++s) cache.prefetch(s);
  EXPECT_EQ(cache.peek(0), nullptr);
  EXPECT_NE(cache.peek(4), nullptr);
}

TEST(SliceTableCache, RandomAccessMatchesDirectBuildExactly) {
  const OperaTopology topo(support::Testbed{.racks = 20, .topology_seed = 7}.topology());
  sim::Rng rng(123);
  for (const int window : {4, 7, 20}) {
    SliceTableCache cache(topo.num_slices(), window, builder_for(topo));
    for (int i = 0; i < 200; ++i) {
      const int s = static_cast<int>(rng.index(static_cast<std::size_t>(topo.num_slices())));
      const int next = (s + 1) % topo.num_slices();
      cache.prefetch(s);
      ASSERT_NE(cache.peek(s), nullptr) << "window " << window;
      ASSERT_NE(cache.peek(next), nullptr) << "window " << window;
      EXPECT_EQ(*cache.peek(s), topo.slice_routes(s)) << "window " << window;
      EXPECT_EQ(*cache.peek(next), topo.slice_routes(next)) << "window " << window;
    }
  }
}

TEST(SliceTableCache, InvalidateAllPicksUpNewBuilderInputs) {
  const OperaTopology topo(support::Testbed{}.topology());
  auto failures = FailureSet::none(topo.num_racks(), topo.num_switches());
  const FailureSet* active = nullptr;
  SliceTableCache cache(topo.num_slices(), 4, builder_for(topo, &active));
  cache.prefetch(2);
  const EcmpTable before = *cache.peek(2);
  EXPECT_EQ(before, topo.slice_routes(2));

  // A switch dies: cached tables are stale until invalidated.
  failures.switch_failed[1] = true;
  active = &failures;
  cache.invalidate_all();
  EXPECT_EQ(cache.stats().resident, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.peek(2), nullptr);
  cache.prefetch(2);
  const EcmpTable after = *cache.peek(2);
  EXPECT_EQ(after, topo.slice_routes(2, &failures));
  EXPECT_NE(after, before);
}

TEST(SliceTableCache, StatsBytesTrackResidency) {
  const OperaTopology topo(support::Testbed{}.topology());
  SliceTableCache cache(topo.num_slices(), 4, builder_for(topo));
  for (int s = 0; s < topo.num_slices(); ++s) cache.prefetch(s);
  const auto& st = cache.stats();
  EXPECT_EQ(st.resident, 4u);
  EXPECT_GT(st.resident_bytes, 0u);
  EXPECT_GE(st.peak_resident_bytes, st.resident_bytes);
  const std::size_t at_peak = st.peak_resident_bytes;
  cache.invalidate_all();
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_GE(cache.stats().peak_resident_bytes, at_peak);
}

// Resident slices from `first` on, in rotation order (the prefetcher's
// lookahead), read through the bookkeeping-free peek().
int lookahead(const SliceTableCache& cache, int first) {
  int ahead = 0;
  while (ahead < cache.window() &&
         cache.peek((first + ahead) % cache.num_slices()) != nullptr) {
    ++ahead;
  }
  return ahead;
}

TEST(SliceTableCache, PrefetchNeverExceedsWindow) {
  const OperaTopology topo(support::Testbed{.racks = 20, .topology_seed = 7}.topology());
  const std::size_t per_table = topo.slice_routes(0).memory_bytes();
  for (const int window : {4, 5, 7, 12}) {
    SliceTableCache cache(topo.num_slices(), window, builder_for(topo));
    for (int abs = 0; abs < 2 * topo.num_slices(); ++abs) {
      cache.prefetch(abs % topo.num_slices());
      EXPECT_LE(cache.stats().resident, static_cast<std::size_t>(window))
          << "window " << window << ", boundary " << abs;
    }
    // The peak tracks every install, so this bounds residency between
    // boundaries too: eviction precedes each batch's builds.
    EXPECT_LE(cache.stats().peak_resident_bytes, per_table * window)
        << "window " << window;
    EXPECT_GT(cache.stats().evictions, 0u);
  }
}

TEST(SliceTableCache, PrefetchBuildsOnlyBelowHalfWindowLookahead) {
  const OperaTopology topo(support::Testbed{.racks = 20, .topology_seed = 7}.topology());
  for (const int window : {4, 5, 8, 11}) {
    SliceTableCache cache(topo.num_slices(), window, builder_for(topo));
    int batches = 0;
    for (int abs = 0; abs < 2 * topo.num_slices(); ++abs) {
      const int s = abs % topo.num_slices();
      const int ahead = lookahead(cache, s);
      const auto before = cache.stats().prefetch_builds;
      cache.prefetch(s);
      const auto built = cache.stats().prefetch_builds - before;
      if (2 * ahead >= window) {
        EXPECT_EQ(built, 0u) << "window " << window << ", slice " << s
                             << ": lookahead " << ahead << " needs no batch";
      } else {
        ++batches;
        EXPECT_EQ(built, static_cast<std::uint64_t>(window - ahead))
            << "window " << window << ", slice " << s;
        EXPECT_EQ(lookahead(cache, s), window) << "a batch refills the window";
      }
    }
    // About one batch per half window of boundaries, not one per boundary.
    EXPECT_LE(batches, 2 * (2 * topo.num_slices()) / window + 1) << "window " << window;
  }
}

TEST(SliceTableCache, RecycledStorageMatchesFreshBuild) {
  // k=8: 16 racks, 4 rotor switches. A window of 4 recycles evicted
  // storage at every batch; compare every slice's table, as the cache
  // holds it, with a fresh build, over two cycles before and after a
  // failure-set change.
  const OperaTopology topo(support::Testbed{}.topology());
  auto failures = FailureSet::none(topo.num_racks(), topo.num_switches());
  const FailureSet* active = nullptr;
  SliceTableCache cache(topo.num_slices(), 4, builder_for(topo, &active));
  const auto walk_two_cycles = [&](const char* phase) {
    for (int abs = 0; abs < 2 * topo.num_slices(); ++abs) {
      const int s = abs % topo.num_slices();
      cache.prefetch(s);
      const EcmpTable* table = cache.peek(s);
      ASSERT_NE(table, nullptr) << phase << ", slice " << s;
      EXPECT_EQ(*table, topo.slice_routes(s, active)) << phase << ", slice " << s;
    }
  };
  walk_two_cycles("no failures");
  failures.switch_failed[1] = true;
  failures.uplink_failed[3][2] = true;
  active = &failures;
  cache.invalidate_all();
  walk_two_cycles("after failures");
  EXPECT_GT(cache.stats().evictions, static_cast<std::uint64_t>(2 * topo.num_slices()));
}

}  // namespace
}  // namespace opera::topo
