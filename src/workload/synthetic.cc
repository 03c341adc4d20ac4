#include "workload/synthetic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <span>
#include <stdexcept>

namespace opera::workload {

std::vector<FlowSpec> poisson_workload(const FlowSizeDistribution& dist,
                                       std::int32_t num_hosts, double load,
                                       double link_rate_bps, sim::Time duration,
                                       sim::Rng& rng) {
  // Checked in every build: at load 0 the mean inter-arrival time is
  // infinite and the arrival loop below would never end.
  if (!(load > 0.0)) throw std::invalid_argument("poisson_workload: load must be > 0");
  if (num_hosts < 2) {
    throw std::invalid_argument("poisson_workload: need at least 2 hosts");
  }
  const double aggregate_bps = link_rate_bps * num_hosts;
  const double lambda =
      load * aggregate_bps / (8.0 * dist.mean_bytes());  // flows per second
  std::vector<FlowSpec> out;
  double t_seconds = 0.0;
  while (true) {
    t_seconds += rng.exponential(1.0 / lambda);
    const sim::Time start = sim::Time::from_seconds(t_seconds);
    if (start >= duration) break;
    FlowSpec f;
    f.src_host = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(num_hosts)));
    f.dst_host = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(num_hosts)));
    while (f.dst_host == f.src_host) {
      f.dst_host = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(num_hosts)));
    }
    f.size_bytes = dist.sample(rng);
    f.start = start;
    out.push_back(f);
  }
  return out;
}

std::vector<FlowSpec> shuffle_workload(std::int32_t num_hosts,
                                       std::int32_t hosts_per_rack,
                                       std::int64_t flow_bytes, sim::Time stagger,
                                       sim::Rng& rng) {
  std::vector<FlowSpec> out;
  for (std::int32_t s = 0; s < num_hosts; ++s) {
    for (std::int32_t t = 0; t < num_hosts; ++t) {
      if (s == t) continue;
      if (s / hosts_per_rack == t / hosts_per_rack) continue;  // rack-local excluded
      FlowSpec f;
      f.src_host = s;
      f.dst_host = t;
      f.size_bytes = flow_bytes;
      f.start = stagger == sim::Time::zero()
                    ? sim::Time::zero()
                    : sim::Time::ps(static_cast<std::int64_t>(
                          rng.uniform() * static_cast<double>(stagger.picoseconds())));
      out.push_back(f);
    }
  }
  return out;
}

std::vector<FlowSpec> permutation_workload(std::int32_t num_hosts,
                                           std::int32_t hosts_per_rack,
                                           std::int64_t flow_bytes, sim::Rng& rng) {
  // Draw permutations until none maps a host into its own rack (quick for
  // any realistic rack count), then pair host i with perm[i].
  const auto n = static_cast<std::size_t>(num_hosts);
  std::vector<std::size_t> perm;
  for (int attempt = 0; attempt < 10'000; ++attempt) {
    perm = rng.permutation(n);
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
      ok = static_cast<std::int32_t>(i) / hosts_per_rack !=
           static_cast<std::int32_t>(perm[i]) / hosts_per_rack;
    }
    if (ok) break;
    perm.clear();
  }
  assert(!perm.empty() && "could not find rack-disjoint permutation");
  std::vector<FlowSpec> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(FlowSpec{static_cast<std::int32_t>(i),
                           static_cast<std::int32_t>(perm[i]), flow_bytes,
                           sim::Time::zero()});
  }
  return out;
}

std::vector<FlowSpec> hotrack_workload(std::int32_t hosts_per_rack,
                                       std::int64_t flow_bytes) {
  std::vector<FlowSpec> out;
  for (std::int32_t i = 0; i < hosts_per_rack; ++i) {
    out.push_back(FlowSpec{i, hosts_per_rack + i, flow_bytes, sim::Time::zero()});
  }
  return out;
}

std::vector<FlowSpec> skew_workload(std::int32_t num_racks, std::int32_t hosts_per_rack,
                                    double active_fraction, std::int64_t flow_bytes,
                                    sim::Rng& rng) {
  const auto active =
      std::max<std::size_t>(2, static_cast<std::size_t>(std::llround(
                                   active_fraction * num_racks)));
  const auto racks = rng.sample_without_replacement(
      static_cast<std::size_t>(num_racks), active);
  std::vector<FlowSpec> out;
  for (const std::size_t ra : racks) {
    for (const std::size_t rb : racks) {
      if (ra == rb) continue;
      for (std::int32_t i = 0; i < hosts_per_rack; ++i) {
        FlowSpec f;
        f.src_host = static_cast<std::int32_t>(ra) * hosts_per_rack + i;
        f.dst_host = static_cast<std::int32_t>(rb) * hosts_per_rack + i;
        f.size_bytes = flow_bytes;
        f.start = sim::Time::zero();
        out.push_back(f);
      }
    }
  }
  return out;
}

std::vector<FlowSpec> incast_workload(std::int32_t num_hosts,
                                      std::int32_t hosts_per_rack,
                                      const IncastParams& params, sim::Rng& rng) {
  assert(num_hosts > hosts_per_rack && params.fanin > 0);
  std::vector<FlowSpec> out;
  std::vector<std::int32_t> candidates;
  for (std::int32_t e = 0; e < params.events; ++e) {
    const sim::Time start = params.spacing * e;
    const auto aggregator =
        static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(num_hosts)));
    const std::int32_t agg_rack = aggregator / hosts_per_rack;
    // Workers live outside the aggregator's rack (the fan-in crosses the
    // fabric); a shuffled candidate list keeps the draw bias-free even
    // when fanin approaches every eligible host.
    candidates.clear();
    for (std::int32_t h = 0; h < num_hosts; ++h) {
      if (h / hosts_per_rack != agg_rack) candidates.push_back(h);
    }
    rng.shuffle(std::span<std::int32_t>{candidates});
    const auto fanin = std::min<std::size_t>(
        static_cast<std::size_t>(params.fanin), candidates.size());
    for (std::size_t i = 0; i < fanin; ++i) {
      out.push_back(FlowSpec{candidates[i], aggregator, params.flow_bytes, start});
    }
  }
  return out;
}

std::vector<FlowSpec> storage_replication_workload(
    std::int32_t num_hosts, std::int32_t hosts_per_rack,
    const StorageReplicationParams& params, sim::Rng& rng) {
  const std::int32_t num_racks = num_hosts / hosts_per_rack;
  // Impossible specs fail loudly (empty workload + stderr), in release
  // builds too: a replica-less write or a one-rack fabric cannot host a
  // rack-disjoint chain at all, and silently simulating nothing would
  // corrupt whatever statistic the caller is sweeping.
  if (params.replicas < 1 || num_racks < 2) {
    std::fprintf(stderr,
                 "storage_replication_workload: impossible spec (replicas=%d, "
                 "racks=%d); need replicas >= 1 and racks >= 2 — returning no "
                 "flows\n",
                 params.replicas, num_racks);
    return {};
  }
  // Rack-disjoint placement can use at most every rack but the client's;
  // clamp (with a warning) so a small CLI-chosen fabric shortens the chain
  // instead of reading past the candidate list.
  const int replicas = std::min(params.replicas, num_racks - 1);
  if (replicas < params.replicas) {
    std::fprintf(stderr,
                 "storage_replication_workload: clamping replicas %d -> %d "
                 "(only %d racks; chains are rack-disjoint)\n",
                 params.replicas, replicas, num_racks);
  }
  std::vector<FlowSpec> out;
  std::vector<std::int32_t> racks;
  for (std::int32_t w = 0; w < params.writes; ++w) {
    const sim::Time start = params.spacing * w;
    const auto client =
        static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(num_hosts)));
    // Replica chain on pairwise-distinct racks, none of them the client's
    // (rack-aware placement: losing one rack loses at most one copy).
    racks.clear();
    for (std::int32_t r = 0; r < num_racks; ++r) {
      if (r != client / hosts_per_rack) racks.push_back(r);
    }
    rng.shuffle(std::span<std::int32_t>{racks});
    std::int32_t prev = client;
    for (int c = 0; c < replicas; ++c) {
      const std::int32_t replica =
          racks[static_cast<std::size_t>(c)] * hosts_per_rack +
          static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(hosts_per_rack)));
      out.push_back(FlowSpec{prev, replica, params.object_bytes,
                             start + params.chain_delay * c});
      prev = replica;
    }
  }
  return out;
}

std::vector<FlowSpec> ml_collective_workload(std::int32_t num_hosts,
                                             std::int32_t hosts_per_rack,
                                             const MlCollectiveParams& params,
                                             sim::Rng& rng) {
  (void)hosts_per_rack;  // rings are rack-oblivious; placement decides locality
  const std::int32_t g = params.group_size;
  if (g < 2 || num_hosts < g) return {};
  std::vector<std::int32_t> placement(static_cast<std::size_t>(num_hosts));
  std::iota(placement.begin(), placement.end(), 0);
  if (params.shuffle_placement) rng.shuffle(std::span<std::int32_t>{placement});

  const std::int32_t groups = num_hosts / g;
  const std::int64_t chunk = std::max<std::int64_t>(1, params.model_bytes / g);
  std::vector<FlowSpec> out;
  for (std::int32_t grp = 0; grp < groups; ++grp) {
    const std::int32_t* ring = placement.data() + static_cast<std::size_t>(grp) * g;
    // Reduce-scatter (g-1 steps) then all-gather (g-1 steps): one chunk
    // from every member to its ring successor per step.
    for (std::int32_t step = 0; step < 2 * (g - 1); ++step) {
      const sim::Time start = params.step_interval * step;
      for (std::int32_t i = 0; i < g; ++i) {
        out.push_back(FlowSpec{ring[i], ring[(i + 1) % g], chunk, start});
      }
    }
  }
  return out;
}

}  // namespace opera::workload
