// topo::SliceTableCache — the per-slice ECMP tables of an Opera fabric,
// eager or windowed.
//
// When every table fits the memory budget (16 MB), the cache is eager: all
// tables are built in parallel at construction and slice boundaries build
// nothing. That covers every fabric up to paper scale (108 racks: 108
// tables, ~3.3 MB in all). Larger fabrics keep a window of the budget's
// size instead: k=24's 432 tables are ~0.4 MB each (~173 MB in all; a
// ~41-table window) and k=32's 768 are ~1.23 MB each (~940 MB; a ~13-table
// window).
//
// The rotation schedule makes slice access perfectly predictable:
// forwarding only ever reads the current slice's table (or the next one,
// inside the end-of-slice drain window). So the cache has one residency
// rule: resident = the window() slices starting at the rotation's current
// slice, refilled in parallel batches off the schedule at slice boundaries
// (prefetch()). A windowed fabric behaves exactly like the full
// precomputed set: table *content* is a pure function of (topology, slice,
// failure set), and caching changes when tables are built, never what they
// contain (see tests/test_routing_parity.cc).
//
// Every write — prefetch(), shrink_window(), invalidate_all() — happens at
// a barrier, while the shard workers are parked, so the per-packet peek()
// is a plain load. Failure recovery calls invalidate_all() and then
// prefetch(): rebuilt tables pick up the new failure set through the
// builder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "topo/graph.h"

namespace opera::topo {

class SliceTableCache {
 public:
  // Builds the table for one slice into `table`, overwriting whatever it
  // held (a fresh table, or an evicted slice's storage being recycled).
  // Must be a pure function of the slice index and whatever state it
  // captures (topology + failure set); it may be invoked from prefetch()'s
  // worker threads, concurrently for different slices.
  using Builder = std::function<void(int slice, EcmpTable& table)>;

  static constexpr std::size_t kDefaultBudgetBytes = 16ull << 20;
  // Forwarding needs the current and next slice (drain window); prefetch()
  // keeps at least half the window resident from the current slice on, so
  // a window of four always holds both.
  static constexpr int kMinWindow = 4;

  struct Stats {
    // Forwarding never builds on demand: the window always holds the
    // current and next slice. Kept, as a constant, for the reports.
    static constexpr std::uint64_t demand_builds = 0;
    std::uint64_t prefetch_builds = 0;  // built ahead of use by prefetch()
    std::uint64_t evictions = 0;
    std::size_t resident = 0;            // tables currently cached
    std::size_t resident_bytes = 0;      // their memory footprint
    std::size_t peak_resident_bytes = 0;
  };

  SliceTableCache() = default;
  // `window` is the number of resident tables. 0 = auto: keep every slice
  // (eager) while the predicted footprint fits kDefaultBudgetBytes,
  // otherwise the largest window that does. Values >= num_slices also
  // mean eager; values below kMinWindow are raised to it.
  SliceTableCache(int num_slices, int window, Builder builder);

  [[nodiscard]] int num_slices() const { return num_slices_; }
  // Resolved window size (== num_slices() when eager).
  [[nodiscard]] int window() const { return window_; }
  [[nodiscard]] bool eager() const { return window_ == num_slices_; }

  // The resident table for `slice`, or null when it lies outside the
  // window. The per-packet forward path reads the current or next slice,
  // which prefetch() keeps resident; in eager mode this never returns null
  // after construction.
  [[nodiscard]] const EcmpTable* peek(int slice) const {
    return slots_[static_cast<std::size_t>(slice)].get();
  }

  // Keeps the window() slices starting at `first` (wrapping) resident for
  // a rotation that calls this at every slice boundary with the new
  // current slice. Builds nothing while at least half the window from
  // `first` on is resident; otherwise evicts the slices outside the window
  // and then builds every missing one in one parallel batch, so residency
  // never exceeds window(). An eager cache builds only after
  // invalidate_all(); an empty (default-constructed) one never builds.
  void prefetch(int first);

  // Drops every cached table (failure recovery: the builder's inputs
  // changed, so cached content is stale). Resolved window is kept.
  void invalidate_all();

  // Memory-pressure degradation (exp::RunGuard): permanently shrinks the
  // resolved window to `new_window` (clamped to [kMinWindow, window())),
  // immediately evicting the slices outside the new window() from `first`
  // (the rotation's current slice) on. Returns false when already at the
  // floor (nothing left to give back). Table *content* is unaffected, so
  // degrading mid-run never changes simulation results, only the
  // build/eviction churn (SliceWindowParity).
  bool shrink_window(int new_window, int first);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // Evicts every resident slice outside the window() slices from `first`
  // on, returning their storage for reuse.
  std::vector<std::unique_ptr<EcmpTable>> evict_outside(int first);

  int num_slices_ = 0;
  int window_ = 0;
  Builder builder_;
  std::vector<std::unique_ptr<EcmpTable>> slots_;  // [slice] -> table or null
  Stats stats_;
};

}  // namespace opera::topo
