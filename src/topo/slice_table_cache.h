// topo::SliceTableCache — the per-slice ECMP tables of an Opera fabric,
// eager or windowed.
//
// When every table fits the memory budget (the default 16 MB), the cache
// is eager: all tables are built in parallel at construction and slice
// boundaries build nothing. That covers every fabric up to paper scale
// (108 racks: 108 tables, ~3.3 MB in all). Larger fabrics keep a window of
// the budget's size instead: k=24's 432 tables are ~0.4 MB each (~173 MB in
// all; a ~41-table window) and k=32's 768 are ~1.23 MB each (~940 MB; a
// ~13-table window).
//
// The rotation schedule makes slice access almost perfectly predictable:
// forwarding only ever reads the current slice's table (or the next one,
// inside the end-of-slice drain window), so a window of tables ahead of
// the current slice — refilled in parallel batches off the schedule at
// slice boundaries — behaves exactly like the full precomputed set.
// Table *content* is a pure function of (topology, slice, failure set);
// caching changes when tables are built, never what they contain, so a
// windowed fabric is bit-identical to an eager one (see
// tests/test_routing_parity.cc).
//
// Out-of-window reads still work: get() builds on demand, counts a miss
// and evicts the least recently used table. Failure recovery calls
// invalidate_all() — only cached entries are dropped; rebuilt tables pick
// up the new failure set through the builder.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

  struct Config {
    // Number of resident tables. 0 = auto: keep every slice (eager, the
    // pre-cache behavior) while the predicted footprint fits
    // memory_budget_bytes, otherwise the largest window that does.
    // Values >= the slice count also mean eager.
    int window = 0;
    std::size_t memory_budget_bytes = kDefaultBudgetBytes;
  };
  static constexpr std::size_t kDefaultBudgetBytes = 16ull << 20;
  // Forwarding needs the current and next slice (drain window); prefetch()
  // keeps at least half the window resident from the current slice on, so
  // a window of four always holds both.
  static constexpr int kMinWindow = 4;

  struct Stats {
    std::uint64_t hits = 0;         // get() served from cache
    std::uint64_t demand_builds = 0;  // get() built on demand (cache miss)
    std::uint64_t prefetch_builds = 0;  // built ahead of use by prefetch()
    std::uint64_t evictions = 0;
    std::size_t resident = 0;            // tables currently cached
    std::size_t resident_bytes = 0;      // their memory footprint
    std::size_t peak_resident_bytes = 0;
  };

  SliceTableCache() = default;
  SliceTableCache(int num_slices, Config config, Builder builder);

  [[nodiscard]] int num_slices() const { return num_slices_; }
  // Resolved window size (== num_slices() when eager).
  [[nodiscard]] int window() const { return window_; }
  [[nodiscard]] bool eager() const { return window_ == num_slices_; }

  // The table for `slice`, building it on demand when not resident.
  const EcmpTable& get(int slice);

  // Bookkeeping-free lookup for the per-packet forward path: the resident
  // table, or null when evicted/never built (fall back to get()). Skips
  // the hit counter and the LRU touch — window freshness is maintained by
  // the boundary prefetch, which re-ticks every in-window slice, so
  // per-lookup touches add nothing but hot-path cost. In eager mode this
  // never returns null after construction. Reads the atomically published
  // pointer (acquire), pairing with install()'s release store, so a
  // concurrent demand build on another shard is either fully visible or
  // not yet published — never torn.
  [[nodiscard]] const EcmpTable* peek(int slice) const {
    return published_[static_cast<std::size_t>(slice)].load(std::memory_order_acquire);
  }

  // Keeps the window() slices starting at `first` (wrapping) resident for
  // a rotation that calls this at every slice boundary with the new
  // current slice. Builds nothing while at least half the window from
  // `first` on is resident; otherwise evicts the slices outside the window
  // and then builds every missing one in one parallel batch, so residency
  // never exceeds window(). Marks the window most-recently-used so LRU
  // eviction only ever claims slices behind the rotation.
  void prefetch(int first);

  // Drops every cached table (failure recovery: the builder's inputs
  // changed, so cached content is stale). Resolved window is kept.
  void invalidate_all();

  // Memory-pressure degradation (exp::RunGuard): permanently shrinks the
  // resolved window to `new_window` (clamped to [kMinWindow, window())),
  // evicting the LRU overhang immediately. Returns false when already at
  // the floor (nothing left to give back). Table *content* is unaffected —
  // window size is parity-tested to be output-neutral (SliceWindowParity)
  // — so degrading mid-run never changes simulation results, only the
  // build/eviction churn. Call only from a barrier (coordinator phase),
  // like prefetch()/invalidate_all().
  bool shrink_window(int new_window);

  // Sharded execution: get()'s demand path may be hit concurrently from
  // shard phases, so it takes a mutex and defers eviction to the next
  // (single-threaded) prefetch — a demand build may briefly exceed the
  // window rather than free a table another shard could be reading.
  // peek() stays lock-free: resident in-window slots only change at
  // barriers (prefetch/invalidate), never during a phase.
  void set_concurrent(bool on) { concurrent_ = on; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void demand_build(int slice);  // get()'s cache miss
  void install(int slice, std::unique_ptr<EcmpTable> table);  // accounting for one build
  void touch(int slice) { last_use_[static_cast<std::size_t>(slice)] = ++tick_; }
  std::unique_ptr<EcmpTable> evict(int slice);  // unpublishes; returns the storage
  void evict_beyond_window();  // LRU victims until resident <= window()

  int num_slices_ = 0;
  int window_ = 0;
  bool concurrent_ = false;
  std::unique_ptr<std::mutex> demand_mutex_;  // unique_ptr: cache is movable
  Builder builder_;
  std::vector<std::unique_ptr<EcmpTable>> slots_;  // [slice] -> table or null
  // Publication mirror of slots_ for the lock-free peek(): written with
  // release after a table is fully built, cleared before its slot is
  // freed. (The vector itself is sized once at construction; moving the
  // cache moves the buffer, never the atomics.)
  std::vector<std::atomic<const EcmpTable*>> published_;
  std::vector<std::uint64_t> last_use_;            // [slice] -> LRU tick
  std::uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace opera::topo
