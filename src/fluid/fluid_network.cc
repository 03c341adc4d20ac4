#include "fluid/fluid_network.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "fluid/hybrid_network.h"

namespace opera::fluid {

FluidNetwork::FluidNetwork(const core::OperaConfig& config)
    : config_(config),
      topo_(config.topology),
      allocator_(topo_,
                 RotorRateLb::Params{
                     config.link.rate_bps,
                     // Match the packet engine's per-slice bulk budget:
                     // the guard window is unusable.
                     (config.slice.duration - config.slice.guard).to_seconds() /
                         config.slice.duration.to_seconds(),
                     config.topology.hosts_per_rack, config.enable_vlb}),
      failures_(topo::FailureSet::none(config.topology.num_racks,
                                       config.topology.num_switches)) {}

std::string FluidNetwork::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "Opera-fluid (%d racks x %d hosts, %d rotors)",
                static_cast<int>(config_.topology.num_racks),
                config_.topology.hosts_per_rack, config_.topology.num_switches);
  return buf;
}

int FluidNetwork::slice_at(sim::Time t) const {
  const std::int64_t abs_slice = t / config_.slice.duration;
  return static_cast<int>(abs_slice % topo_.num_slices());
}

sim::Time FluidNetwork::next_boundary(sim::Time t) const {
  const std::int64_t abs_slice = t / config_.slice.duration;
  return config_.slice.duration * (abs_slice + 1);
}

std::uint64_t FluidNetwork::submit_flow(std::int32_t src_host,
                                        std::int32_t dst_host,
                                        std::int64_t size_bytes,
                                        sim::Time start,
                                        std::optional<net::TrafficClass> force) {
  transport::Flow flow;
  flow.id = tracker_.next_flow_id();
  flow.src_host = src_host;
  flow.dst_host = dst_host;
  flow.src_rack = rack_of_host(src_host);
  flow.dst_rack = rack_of_host(dst_host);
  flow.size_bytes = size_bytes;
  flow.tclass = core::flow_class(size_bytes, config_.bulk_threshold_bytes, force);
  flow.start = start;
  tracker_.register_flow(flow);
  const std::uint64_t id = flow.id;
  sim_.schedule_at(start, [this, id, size_bytes] {
    on_flow_start(id, size_bytes);
  });
  return id;
}

void FluidNetwork::on_flow_start(std::uint64_t id, std::int64_t size_bytes) {
  const sim::Time now = sim_.now();
  const transport::Flow* flow = tracker_.find(id);
  const std::int64_t key =
      static_cast<std::int64_t>(flow->src_rack) * num_racks() + flow->dst_rack;
  auto [it, inserted] = groups_.try_emplace(key);
  Group& group = it->second;
  if (inserted) {
    group.src_rack = flow->src_rack;
    group.dst_rack = flow->dst_rack;
    group.updated = now;
  } else {
    // Capture V at join time under the frozen rate.
    advance_group(group, now);
  }
  group.live += 1;
  group.heap.push_back(
      FlowMark{group.drained + static_cast<double>(size_bytes), id});
  std::push_heap(group.heap.begin(), group.heap.end(),
                 [](const FlowMark& a, const FlowMark& b) {
                   return a.threshold > b.threshold ||
                          (a.threshold == b.threshold && a.id > b.id);
                 });
  arm_tick(now);
}

void FluidNetwork::arm_tick(sim::Time now) {
  if (tick_armed_) return;
  tick_armed_ = true;
  // The integrator was idle: give the (re)starting groups rates for the
  // remainder of this slice instead of waiting for the next boundary.
  recompute_rates(slice_at(now));
  sim_.schedule_at(next_boundary(now), [this] { on_tick(); });
}

void FluidNetwork::on_tick() {
  const sim::Time now = sim_.now();
  sweep_to(now, /*recompute_rates=*/true);
  if (groups_.empty()) {
    tick_armed_ = false;  // re-armed by the next flow start
    return;
  }
  sim_.schedule_at(next_boundary(now), [this] { on_tick(); });
}

void FluidNetwork::accrue(Group& group, double per_flow_bytes) {
  if (per_flow_bytes <= 0.0 || group.live == 0) return;
  const double bytes = static_cast<double>(group.live) * per_flow_bytes;
  if (group.src_rack == group.dst_rack) {
    stats_.intra_bytes += bytes;
    return;
  }
  const double rate = group.rate.per_flow;
  if (rate <= 0.0) return;
  stats_.direct_bytes += bytes * (group.rate.direct_share / rate);
  stats_.vlb_bytes += bytes * (group.rate.vlb_share / rate);
}

void FluidNetwork::advance_group(Group& group, sim::Time t) {
  if (t <= group.updated) return;
  const double bytes_per_sec = group.rate.per_flow / 8.0;
  if (bytes_per_sec > 0.0) {
    while (!group.heap.empty()) {
      const FlowMark top = group.heap.front();
      const double need = std::max(0.0, top.threshold - group.drained);
      const double window = bytes_per_sec * (t - group.updated).to_seconds();
      if (need > window) break;
      sim::Time done_at =
          group.updated + sim::Time::from_seconds(need / bytes_per_sec);
      if (done_at > t) done_at = t;
      accrue(group, top.threshold - group.drained);
      group.drained = top.threshold;
      group.updated = done_at;
      std::pop_heap(group.heap.begin(), group.heap.end(),
                    [](const FlowMark& a, const FlowMark& b) {
                      return a.threshold > b.threshold ||
                             (a.threshold == b.threshold && a.id > b.id);
                    });
      group.heap.pop_back();
      group.live -= 1;
      pending_.push_back(PendingCompletion{done_at, top.id});
    }
    const double delta = bytes_per_sec * (t - group.updated).to_seconds();
    accrue(group, delta);
    group.drained += delta;
  }
  group.updated = t;
}

void FluidNetwork::sweep_to(sim::Time t, bool recompute) {
  for (auto& [key, group] : groups_) advance_group(group, t);
  if (!pending_.empty()) {
    // Canonical (time, flow id) completion order — the same contract the
    // packet engine's lane merge provides.
    std::sort(pending_.begin(), pending_.end(),
              [](const PendingCompletion& a, const PendingCompletion& b) {
                return a.at < b.at || (a.at == b.at && a.id < b.id);
              });
    for (const PendingCompletion& done : pending_) {
      tracker_.on_delivered(done.id, tracker_.find(done.id)->size_bytes,
                            done.at);
      tracker_.on_complete(done.id, done.at);
    }
    pending_.clear();
  }
  for (auto it = groups_.begin(); it != groups_.end();) {
    it = it->second.live == 0 ? groups_.erase(it) : std::next(it);
  }
  if (recompute && !groups_.empty()) recompute_rates(slice_at(t));
}

void FluidNetwork::recompute_rates(int slice) {
  scratch_demands_.clear();
  scratch_demands_.reserve(groups_.size());
  for (const auto& [key, group] : groups_) {
    scratch_demands_.push_back(
        GroupDemand{group.src_rack, group.dst_rack, group.live});
  }
  const std::vector<GroupRate> rates = allocator_.allocate(
      slice, scratch_demands_, any_failure_ ? &failures_ : nullptr);
  std::size_t i = 0;
  for (auto& [key, group] : groups_) group.rate = rates[i++];
}

void FluidNetwork::run_until(sim::Time t) {
  sim_.run_until(t);
  // Catch the fluid state up to the stop time so the tracker is exact at
  // return (run_until may stop mid-slice: horizon or progress-hook stop).
  sweep_to(sim_.now(), /*recompute_rates=*/false);
}

void FluidNetwork::inject_uplink_failure(std::int32_t rack, int rotor_switch) {
  failures_.uplink_failed[static_cast<std::size_t>(rack)]
                         [static_cast<std::size_t>(rotor_switch)] = true;
  any_failure_ = true;
}

void FluidNetwork::recover_uplink(std::int32_t rack, int rotor_switch) {
  failures_.uplink_failed[static_cast<std::size_t>(rack)]
                         [static_cast<std::size_t>(rotor_switch)] = false;
  any_failure_ = failures_.any();
}

void FluidNetwork::inject_switch_failure(int rotor_switch) {
  failures_.switch_failed[static_cast<std::size_t>(rotor_switch)] = true;
  any_failure_ = true;
}

void FluidNetwork::recover_switch(int rotor_switch) {
  failures_.switch_failed[static_cast<std::size_t>(rotor_switch)] = false;
  any_failure_ = failures_.any();
}

void FluidNetwork::fingerprint(sim::Fingerprint& fp) const {
  core::Network::fingerprint(fp);
  fp.mix_u64(groups_.size());
  for (const auto& [key, group] : groups_) {
    fp.mix_u64(static_cast<std::uint64_t>(key));
    fp.mix_u64(static_cast<std::uint64_t>(group.live));
    fp.mix_double(group.drained);
    fp.mix_time(group.updated);
    fp.mix_double(group.rate.per_flow);
    fp.mix_double(group.rate.direct_share);
    fp.mix_double(group.rate.vlb_share);
    // Heap container order is deterministic (same push/pop sequence on
    // every replay at any --threads=N — the integrator never shards).
    fp.mix_u64(group.heap.size());
    for (const FlowMark& mark : group.heap) {
      fp.mix_double(mark.threshold);
      fp.mix_u64(mark.id);
    }
  }
  fp.mix_double(stats_.direct_bytes);
  fp.mix_double(stats_.vlb_bytes);
  fp.mix_double(stats_.intra_bytes);
  failures_.fingerprint(fp);
}

namespace {

std::unique_ptr<core::Network> build_fluid(const core::FabricConfig& config) {
  if (config.kind != core::FabricKind::kOpera) {
    std::fprintf(stderr,
                 "engine 'fluid' supports only the opera fabric (got '%s')\n",
                 core::fabric_kind_name(config.kind));
    std::exit(2);
  }
  return std::make_unique<FluidNetwork>(config.opera_config());
}

std::unique_ptr<core::Network> build_hybrid(const core::FabricConfig& config) {
  if (config.kind != core::FabricKind::kOpera) {
    std::fprintf(stderr,
                 "engine 'hybrid' supports only the opera fabric (got '%s')\n",
                 core::fabric_kind_name(config.kind));
    std::exit(2);
  }
  return std::make_unique<HybridNetwork>(config);
}

}  // namespace

void register_fluid_engines() {
  core::NetworkFactory::register_engine(core::EngineKind::kFluid, &build_fluid);
  core::NetworkFactory::register_engine(core::EngineKind::kHybrid,
                                        &build_hybrid);
}

}  // namespace opera::fluid
