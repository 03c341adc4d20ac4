#include "topo/slice_table_cache.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "sim/parallel.h"

namespace opera::topo {

SliceTableCache::SliceTableCache(int num_slices, Config config, Builder builder)
    : num_slices_(num_slices),
      demand_mutex_(std::make_unique<std::mutex>()),
      builder_(std::move(builder)) {
  assert(num_slices_ > 0 && builder_);
  slots_.resize(static_cast<std::size_t>(num_slices_));
  published_ = std::vector<std::atomic<const EcmpTable*>>(
      static_cast<std::size_t>(num_slices_));
  last_use_.assign(static_cast<std::size_t>(num_slices_), 0);

  if (config.window > 0) {
    window_ = std::min(std::max(config.window, kMinWindow), num_slices_);
  } else {
    // Auto: size the window off one measured table (slice 0 — we would
    // build it first anyway; all slices have the same table shape).
    auto probe = std::make_unique<EcmpTable>();
    builder_(0, *probe);
    const std::size_t per_table = std::max<std::size_t>(1, probe->memory_bytes());
    install(0, std::move(probe));
    touch(0);
    const std::size_t all = per_table * static_cast<std::size_t>(num_slices_);
    if (all <= config.memory_budget_bytes) {
      window_ = num_slices_;
    } else {
      const auto fit = static_cast<int>(config.memory_budget_bytes / per_table);
      window_ = std::clamp(fit, kMinWindow, num_slices_);
    }
  }

  // Eager mode keeps the pre-cache construction behavior: every table is
  // built up front, in parallel across slices.
  if (eager()) prefetch(0);
}

const EcmpTable& SliceTableCache::get(int slice) {
  assert(slice >= 0 && slice < num_slices_);
  auto& slot = slots_[static_cast<std::size_t>(slice)];
  if (concurrent_) {
    // Concurrent shard phases may demand the same out-of-window slice;
    // serialize the build and re-check under the lock. Eviction is
    // deferred to the next barrier prefetch so no reader loses its table.
    const std::lock_guard<std::mutex> lock(*demand_mutex_);
    if (slot == nullptr) {
      demand_build(slice);
    } else {
      ++stats_.hits;
      touch(slice);
    }
    return *slot;
  }
  if (slot == nullptr) {
    demand_build(slice);
    evict_beyond_window();
  } else {
    ++stats_.hits;
    touch(slice);
  }
  return *slot;
}

void SliceTableCache::prefetch(int first) {
  assert(first >= 0 && first < num_slices_);
  const auto resident = [&](int i) {
    return slots_[static_cast<std::size_t>((first + i) % num_slices_)] != nullptr;
  };
  // Lookahead: the resident run of the rotation starting at `first`. While
  // it covers half the window the boundary builds nothing; otherwise one
  // batch refills the whole window, so a rotating run pays one parallel
  // build of about window() / 2 tables every window() / 2 boundaries
  // instead of one serial build per boundary.
  int ahead = 0;
  while (ahead < window_ && resident(ahead)) ++ahead;
  if (2 * ahead < window_) {
    // Evict the slices behind `first` before building, so residency never
    // exceeds the window, even transiently; their storage is rebuilt in
    // place rather than freed and reallocated.
    std::vector<std::unique_ptr<EcmpTable>> spare;
    for (int s = 0; s < num_slices_; ++s) {
      const int offset = (s - first + num_slices_) % num_slices_;
      if (offset >= window_ && slots_[static_cast<std::size_t>(s)] != nullptr) {
        spare.push_back(evict(s));
      }
    }
    std::vector<int> missing;
    for (int i = ahead; i < window_; ++i) {
      if (!resident(i)) missing.push_back((first + i) % num_slices_);
    }
    std::vector<std::unique_ptr<EcmpTable>> built(missing.size());
    for (std::size_t i = 0; i < built.size(); ++i) {
      built[i] = i < spare.size() ? std::move(spare[i]) : std::make_unique<EcmpTable>();
    }
    spare.clear();  // frees any surplus before the builds allocate
    // Parallel workers fill disjoint tables only; cache bookkeeping stays
    // single-threaded.
    sim::parallel_for(missing.size(),
                      [&](std::size_t i) { builder_(missing[i], *built[i]); });
    for (std::size_t i = 0; i < missing.size(); ++i) {
      install(missing[i], std::move(built[i]));
      ++stats_.prefetch_builds;
    }
  }
  // Freshen the whole window in rotation order so LRU eviction only ever
  // claims slices behind `first`.
  for (int i = window_ - 1; i >= 0; --i) touch((first + i) % num_slices_);
  // Drops any overhang a concurrent demand build left behind.
  evict_beyond_window();
}

void SliceTableCache::invalidate_all() {
  for (auto& p : published_) p.store(nullptr, std::memory_order_release);
  for (auto& slot : slots_) slot.reset();
  std::fill(last_use_.begin(), last_use_.end(), 0);
  stats_.resident = 0;
  stats_.resident_bytes = 0;
}

bool SliceTableCache::shrink_window(int new_window) {
  new_window = std::max(new_window, kMinWindow);
  if (new_window >= window_) return false;
  window_ = new_window;
  evict_beyond_window();
  return true;
}

void SliceTableCache::demand_build(int slice) {
  ++stats_.demand_builds;
  auto table = std::make_unique<EcmpTable>();
  builder_(slice, *table);
  install(slice, std::move(table));
  touch(slice);
}

void SliceTableCache::install(int slice, std::unique_ptr<EcmpTable> table) {
  auto& slot = slots_[static_cast<std::size_t>(slice)];
  assert(slot == nullptr);
  slot = std::move(table);
  ++stats_.resident;
  stats_.resident_bytes += slot->memory_bytes();
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  // Publish after the table is fully constructed: a racing peek() either
  // sees null (and falls back to the mutex-guarded get()) or a complete
  // table.
  published_[static_cast<std::size_t>(slice)].store(slot.get(),
                                                    std::memory_order_release);
}

std::unique_ptr<EcmpTable> SliceTableCache::evict(int slice) {
  auto& slot = slots_[static_cast<std::size_t>(slice)];
  assert(slot != nullptr);
  stats_.resident_bytes -= slot->memory_bytes();
  published_[static_cast<std::size_t>(slice)].store(nullptr, std::memory_order_release);
  --stats_.resident;
  ++stats_.evictions;
  return std::move(slot);
}

void SliceTableCache::evict_beyond_window() {
  while (stats_.resident > static_cast<std::size_t>(window_)) {
    int victim = -1;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (int s = 0; s < num_slices_; ++s) {
      if (slots_[static_cast<std::size_t>(s)] == nullptr) continue;
      if (last_use_[static_cast<std::size_t>(s)] < oldest) {
        oldest = last_use_[static_cast<std::size_t>(s)];
        victim = s;
      }
    }
    assert(victim >= 0);
    evict(victim);
  }
}

}  // namespace opera::topo
