#include "topo/slice_table_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/parallel.h"

namespace opera::topo {

SliceTableCache::SliceTableCache(int num_slices, int window, Builder builder)
    : num_slices_(num_slices), builder_(std::move(builder)) {
  assert(num_slices_ > 0 && builder_);
  slots_.resize(static_cast<std::size_t>(num_slices_));
  if (window <= 0) {
    // Auto: size the window off one measured table (slice 0 — we would
    // build it first anyway; all slices have the same table shape).
    auto& probe = slots_[0];
    probe = std::make_unique<EcmpTable>();
    builder_(0, *probe);
    const std::size_t per_table = std::max<std::size_t>(1, probe->memory_bytes());
    stats_.resident = 1;
    stats_.resident_bytes = stats_.peak_resident_bytes = probe->memory_bytes();
    window = static_cast<int>(std::min<std::size_t>(
        kDefaultBudgetBytes / per_table, static_cast<std::size_t>(num_slices_)));
  }
  window_ = std::min(std::max(window, kMinWindow), num_slices_);

  // Eager mode keeps the pre-cache construction behavior: every table is
  // built up front, in parallel across slices.
  if (eager()) prefetch(0);
}

void SliceTableCache::prefetch(int first) {
  assert(num_slices_ == 0 || (first >= 0 && first < num_slices_));
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
  if (2 * ahead >= window_) return;

  // Evict the slices behind `first` before building, so residency never
  // exceeds the window, even transiently; their storage is rebuilt in
  // place rather than freed and reallocated.
  std::vector<std::unique_ptr<EcmpTable>> spare = evict_outside(first);
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
    auto& slot = slots_[static_cast<std::size_t>(missing[i])];
    slot = std::move(built[i]);
    ++stats_.resident;
    stats_.resident_bytes += slot->memory_bytes();
    stats_.peak_resident_bytes =
        std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
    ++stats_.prefetch_builds;
  }
}

void SliceTableCache::invalidate_all() {
  for (auto& slot : slots_) slot.reset();
  stats_.resident = 0;
  stats_.resident_bytes = 0;
}

bool SliceTableCache::shrink_window(int new_window, int first) {
  new_window = std::max(new_window, kMinWindow);
  if (new_window >= window_) return false;
  window_ = new_window;
  evict_outside(first);
  return true;
}

std::vector<std::unique_ptr<EcmpTable>> SliceTableCache::evict_outside(int first) {
  std::vector<std::unique_ptr<EcmpTable>> storage;
  for (int s = 0; s < num_slices_; ++s) {
    auto& slot = slots_[static_cast<std::size_t>(s)];
    if (slot == nullptr || (s - first + num_slices_) % num_slices_ < window_) continue;
    stats_.resident_bytes -= slot->memory_bytes();
    --stats_.resident;
    ++stats_.evictions;
    storage.push_back(std::move(slot));
  }
  return storage;
}

}  // namespace opera::topo
