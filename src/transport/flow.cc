#include "transport/flow.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sim/sharded.h"

namespace opera::transport {

const Flow& FlowTracker::register_flow(const Flow& flow) {
  assert(flow.size_bytes > 0);
  if (flow.id != flows_.size() + 1) {
    std::fprintf(stderr, "FlowTracker: flow id %llu registered out of order (next is %zu)\n",
                 static_cast<unsigned long long>(flow.id), flows_.size() + 1);
    std::abort();
  }
  flows_.push_back(flow);
  return flows_.back();
}

void FlowTracker::on_delivered(std::uint64_t id, std::int64_t bytes, sim::Time at) {
  if (!delivery_hook_) return;
  if (!lanes_.empty()) {
    // Stage into the executing shard's lane; coordinator-phase records
    // (sim::current_shard() == -1) use lane 0 — they are already globally
    // ordered, and the canonical merge re-sorts anyway.
    const int lane = std::max(0, sim::current_shard());
    lanes_[static_cast<std::size_t>(lane)].deliveries.push_back(
        StagedDelivery{id, bytes, at});
    return;
  }
  const Flow* flow = find(id);
  if (flow != nullptr) delivery_hook_(*flow, bytes, at);
}

void FlowTracker::on_complete(std::uint64_t id, sim::Time end) {
  const Flow* flow = find(id);
  assert(flow != nullptr && "completion for unknown flow");
  if (!lanes_.empty()) {
    const int lane = std::max(0, sim::current_shard());
    lanes_[static_cast<std::size_t>(lane)].completions.push_back(
        FlowRecord{*flow, end});
    return;
  }
  completions_.push_back(FlowRecord{*flow, end});
  if (hook_) hook_(completions_.back());
}

void FlowTracker::set_lanes(int n) {
  assert(completions_.empty() && "enable lanes before the run");
  lanes_.assign(static_cast<std::size_t>(n < 0 ? 0 : n), Lane{});
}

void FlowTracker::flush_lanes() {
  if (lanes_.empty()) return;

  merge_completions_.clear();
  merge_deliveries_.clear();
  for (Lane& lane : lanes_) {
    merge_completions_.insert(merge_completions_.end(),
                              std::make_move_iterator(lane.completions.begin()),
                              std::make_move_iterator(lane.completions.end()));
    lane.completions.clear();
    merge_deliveries_.insert(merge_deliveries_.end(), lane.deliveries.begin(),
                             lane.deliveries.end());
    lane.deliveries.clear();
  }
  if (!merge_completions_.empty()) {
    std::stable_sort(merge_completions_.begin(), merge_completions_.end(),
                     [](const FlowRecord& a, const FlowRecord& b) {
                       if (a.end != b.end) return a.end < b.end;
                       return a.flow.id < b.flow.id;
                     });
    for (FlowRecord& rec : merge_completions_) {
      completions_.push_back(std::move(rec));
      if (hook_) hook_(completions_.back());
    }
  }
  if (!merge_deliveries_.empty()) {
    std::stable_sort(merge_deliveries_.begin(), merge_deliveries_.end(),
                     [](const StagedDelivery& a, const StagedDelivery& b) {
                       if (a.at != b.at) return a.at < b.at;
                       return a.id < b.id;
                     });
    for (const StagedDelivery& d : merge_deliveries_) {
      const Flow* flow = find(d.id);
      if (flow != nullptr) delivery_hook_(*flow, d.bytes, d.at);
    }
  }
}

sim::PercentileSampler FlowTracker::fct_us(std::int64_t lo_bytes,
                                           std::int64_t hi_bytes) const {
  sim::PercentileSampler out;
  for (const auto& rec : completions_) {
    if (rec.flow.size_bytes >= lo_bytes && rec.flow.size_bytes < hi_bytes) {
      out.add(rec.fct().to_us());
    }
  }
  return out;
}

void FlowTracker::fingerprint(sim::Fingerprint& fp) const {
  fp.mix_u64(flows_.size());
  fp.mix_u64(next_id_);
  fp.mix_u64(completions_.size());
  for (const auto& rec : completions_) {
    fp.mix_u64(rec.flow.id);
    fp.mix_i64(rec.flow.src_host);
    fp.mix_i64(rec.flow.dst_host);
    fp.mix_i64(rec.flow.size_bytes);
    fp.mix_u64(static_cast<std::uint64_t>(rec.flow.tclass));
    fp.mix_time(rec.flow.start);
    fp.mix_time(rec.end);
  }
}

}  // namespace opera::transport
