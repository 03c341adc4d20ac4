// topo::SliceTableCache unit + property tests: resolved window sizing,
// LRU eviction, batched prefetch-ahead behavior, invalidation, and — the
// load-bearing property — that a cached lookup, in fresh or recycled
// storage, is always bit-identical to a direct build.
#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"
#include "topo/opera_topology.h"
#include "topo/slice_table_cache.h"

namespace opera::topo {
namespace {

OperaTopology make_topo(Vertex racks = 16, int u = 4, std::uint64_t seed = 3) {
  OperaParams p;
  p.num_racks = racks;
  p.num_switches = u;
  p.hosts_per_rack = 4;
  p.seed = seed;
  return OperaTopology(p);
}

SliceTableCache::Builder builder_for(const OperaTopology& topo,
                                     const FailureSet** failures = nullptr) {
  return [&topo, failures](int s, EcmpTable& table) {
    topo.slice_routes(s, failures != nullptr ? *failures : nullptr, table);
  };
}

TEST(SliceTableCache, ExplicitWindowIsClampedToMinAndSliceCount) {
  const auto topo = make_topo();
  SliceTableCache tiny(topo.num_slices(), {1, 0}, builder_for(topo));
  EXPECT_EQ(tiny.window(), SliceTableCache::kMinWindow);
  SliceTableCache huge(topo.num_slices(), {10'000, 0}, builder_for(topo));
  EXPECT_EQ(huge.window(), topo.num_slices());
  EXPECT_TRUE(huge.eager());
}

TEST(SliceTableCache, AutoModeEagerWhenBudgetFits) {
  const auto topo = make_topo();
  SliceTableCache cache(topo.num_slices(), {0, 64ull << 20}, builder_for(topo));
  EXPECT_TRUE(cache.eager());
  // Everything was built up front: all gets are hits.
  for (int s = 0; s < topo.num_slices(); ++s) cache.get(s);
  EXPECT_EQ(cache.stats().demand_builds, 0u);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(topo.num_slices()));
  EXPECT_EQ(cache.stats().resident, static_cast<std::size_t>(topo.num_slices()));
}

TEST(SliceTableCache, AutoModeWindowsUnderTightBudget) {
  const auto topo = make_topo();
  const std::size_t per_table = topo.slice_routes(0).memory_bytes();
  // Budget for about six tables: the window must land near that, far
  // below the slice count, and eviction must keep residency bounded.
  SliceTableCache cache(topo.num_slices(), {0, per_table * 6}, builder_for(topo));
  EXPECT_FALSE(cache.eager());
  EXPECT_GE(cache.window(), SliceTableCache::kMinWindow);
  EXPECT_LE(cache.window(), 8);
  for (int s = 0; s < topo.num_slices(); ++s) cache.get(s);
  EXPECT_LE(cache.stats().resident, static_cast<std::size_t>(cache.window()));
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.stats().resident_bytes, per_table * 8);
}

TEST(SliceTableCache, PrefetchKeepsRotationLookupsHit) {
  const auto topo = make_topo();
  SliceTableCache cache(topo.num_slices(), {5, 0}, builder_for(topo));
  // Walk two full cycles the way the network does: prefetch at each
  // boundary, then read the current and next slice (drain window).
  for (int abs = 0; abs < 2 * topo.num_slices(); ++abs) {
    const int s = abs % topo.num_slices();
    cache.prefetch(s);
    const auto before = cache.stats().demand_builds;
    cache.get(s);
    cache.get((s + 1) % topo.num_slices());
    EXPECT_EQ(cache.stats().demand_builds, before)
        << "slice " << s << " should be prefetched, never demand-built";
  }
  EXPECT_LE(cache.stats().resident, static_cast<std::size_t>(cache.window()));
}

TEST(SliceTableCache, PeekIsBookkeepingFreeAndNullWhenEvicted) {
  const auto topo = make_topo();
  SliceTableCache cache(topo.num_slices(), {4, 0}, builder_for(topo));
  EXPECT_EQ(cache.peek(0), nullptr);  // nothing built yet
  const EcmpTable& built = cache.get(0);
  const auto hits = cache.stats().hits;
  EXPECT_EQ(cache.peek(0), &built);
  EXPECT_EQ(cache.stats().hits, hits) << "peek must not count as a hit";
  // Fill past the window: slice 0 falls out, peek reports the eviction.
  for (int s = 1; s <= 4; ++s) cache.get(s);
  EXPECT_EQ(cache.peek(0), nullptr);
  EXPECT_NE(cache.peek(4), nullptr);
}

TEST(SliceTableCache, RandomAccessMatchesDirectBuildExactly) {
  const auto topo = make_topo(20, 4, 7);
  sim::Rng rng(123);
  for (const int window : {4, 7, 20}) {
    SliceTableCache cache(topo.num_slices(), {window, 0}, builder_for(topo));
    for (int i = 0; i < 200; ++i) {
      const int s = static_cast<int>(rng.index(static_cast<std::size_t>(topo.num_slices())));
      EXPECT_EQ(cache.get(s), topo.slice_routes(s)) << "window " << window;
      if (i % 37 == 0) cache.prefetch(s);
    }
  }
}

TEST(SliceTableCache, InvalidateAllPicksUpNewBuilderInputs) {
  const auto topo = make_topo();
  auto failures = FailureSet::none(topo.num_racks(), topo.num_switches());
  const FailureSet* active = nullptr;
  SliceTableCache cache(topo.num_slices(), {4, 0},
                        builder_for(topo, &active));
  const EcmpTable before = cache.get(2);
  EXPECT_EQ(before, topo.slice_routes(2));

  // A switch dies: cached tables are stale until invalidated.
  failures.switch_failed[1] = true;
  active = &failures;
  cache.invalidate_all();
  EXPECT_EQ(cache.stats().resident, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  const EcmpTable after = cache.get(2);
  EXPECT_EQ(after, topo.slice_routes(2, &failures));
  EXPECT_NE(after, before);
}

TEST(SliceTableCache, StatsBytesTrackResidency) {
  const auto topo = make_topo();
  SliceTableCache cache(topo.num_slices(), {4, 0}, builder_for(topo));
  for (int s = 0; s < topo.num_slices(); ++s) cache.get(s);
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
  const auto topo = make_topo(20, 4, 7);
  const std::size_t per_table = topo.slice_routes(0).memory_bytes();
  for (const int window : {4, 5, 7, 12}) {
    SliceTableCache cache(topo.num_slices(), {window, 0}, builder_for(topo));
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
  const auto topo = make_topo(20, 4, 7);
  for (const int window : {4, 5, 8, 11}) {
    SliceTableCache cache(topo.num_slices(), {window, 0}, builder_for(topo));
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
  const auto topo = make_topo(16, 4, 3);
  auto failures = FailureSet::none(topo.num_racks(), topo.num_switches());
  const FailureSet* active = nullptr;
  SliceTableCache cache(topo.num_slices(), {4, 0}, builder_for(topo, &active));
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
  EXPECT_EQ(cache.stats().demand_builds, 0u);
  EXPECT_GT(cache.stats().evictions, static_cast<std::uint64_t>(2 * topo.num_slices()));
}

}  // namespace
}  // namespace opera::topo
