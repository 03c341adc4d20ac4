// Synthetic workload generators for the paper's experiments:
//   * Poisson arrivals with an empirical flow-size distribution (Figs 7, 9)
//   * all-to-all shuffle at a fixed flow size (Fig. 8, §5.2)
//   * host permutation, hot-rack, skew[p,1] (Fig. 12/15, §5.6)
// plus the datacenter patterns the paper motivates but does not sweep —
// declarative param structs so an exp::FctSweep can state them inline:
//   * incast (N:1 partition-aggregate fan-in)
//   * storage replication (rack-aware primary/replica write chains)
//   * ML collective (ring all-reduce over host groups)
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "workload/flow_size_dist.h"

namespace opera::workload {

struct FlowSpec {
  std::int32_t src_host = -1;
  std::int32_t dst_host = -1;
  std::int64_t size_bytes = 0;
  sim::Time start;
};

// Poisson open-loop arrivals. `load` is the fraction of aggregate host
// link bandwidth (paper: "100% load means all hosts are driving their edge
// links at full capacity"); the flow arrival rate is
//   lambda = load * num_hosts * link_rate / (8 * mean_flow_size).
// Sources and destinations are uniform over distinct hosts. Throws
// std::invalid_argument unless load > 0 and num_hosts >= 2.
[[nodiscard]] std::vector<FlowSpec> poisson_workload(
    const FlowSizeDistribution& dist, std::int32_t num_hosts, double load,
    double link_rate_bps, sim::Time duration, sim::Rng& rng);

// All-to-all shuffle: every host sends `flow_bytes` to every other host
// outside its own rack (the paper's MapReduce-style 100 KB shuffle).
// Starts are staggered uniformly over `stagger` (0 = simultaneous).
[[nodiscard]] std::vector<FlowSpec> shuffle_workload(
    std::int32_t num_hosts, std::int32_t hosts_per_rack, std::int64_t flow_bytes,
    sim::Time stagger, sim::Rng& rng);

// Host-level permutation: each host sends one flow to a distinct,
// non-rack-local host (a random derangement at rack granularity).
[[nodiscard]] std::vector<FlowSpec> permutation_workload(
    std::int32_t num_hosts, std::int32_t hosts_per_rack, std::int64_t flow_bytes,
    sim::Rng& rng);

// Hot rack: every host in rack 0 sends to its counterpart in rack 1.
[[nodiscard]] std::vector<FlowSpec> hotrack_workload(std::int32_t hosts_per_rack,
                                                     std::int64_t flow_bytes);

// skew[p, 1] (after Kassing et al. [29]): a fraction p of racks are active
// and exchange all-to-all traffic at full load; the rest are idle.
[[nodiscard]] std::vector<FlowSpec> skew_workload(std::int32_t num_racks,
                                                  std::int32_t hosts_per_rack,
                                                  double active_fraction,
                                                  std::int64_t flow_bytes,
                                                  sim::Rng& rng);

// Partition-aggregate incast: `events` queries, each picking one
// aggregator host and `fanin` distinct worker hosts on other racks that
// all answer with `flow_bytes` at the same instant. Events are spaced
// `spacing` apart; flows within an event are listed in draw order.
struct IncastParams {
  std::int32_t events = 8;
  std::int32_t fanin = 32;           // capped at the hosts outside the
                                     // aggregator's rack
  std::int64_t flow_bytes = 64'000;  // per-worker response
  sim::Time spacing = sim::Time::us(500);
};
[[nodiscard]] std::vector<FlowSpec> incast_workload(std::int32_t num_hosts,
                                                    std::int32_t hosts_per_rack,
                                                    const IncastParams& params,
                                                    sim::Rng& rng);

// Rack-aware replicated writes (HDFS/Ceph-style): each of `writes` ops
// picks a client and a primary on a different rack, then pipelines the
// object down a chain of `replicas` copies on pairwise-distinct racks —
// client -> primary at t, primary -> r2 at t + chain_delay, r2 -> r3 at
// t + 2*chain_delay, ... Writes start `spacing` apart.
struct StorageReplicationParams {
  std::int32_t writes = 32;
  int replicas = 3;                       // primary + 2 copies
  std::int64_t object_bytes = 4'000'000;  // one chunk
  sim::Time spacing = sim::Time::us(200);
  sim::Time chain_delay = sim::Time::us(40);  // pipeline head-start per hop
};
[[nodiscard]] std::vector<FlowSpec> storage_replication_workload(
    std::int32_t num_hosts, std::int32_t hosts_per_rack,
    const StorageReplicationParams& params, sim::Rng& rng);

// Ring all-reduce (the bandwidth-optimal collective behind data-parallel
// training): hosts are partitioned into rings of `group_size` (randomly
// placed across racks when `shuffle_placement`, contiguous otherwise;
// hosts beyond the last full group stay idle). Each ring runs the
// standard 2*(group_size-1) steps — reduce-scatter then all-gather — with
// every member sending one model_bytes/group_size chunk to its successor
// per step, steps `step_interval` apart.
struct MlCollectiveParams {
  std::int32_t group_size = 8;
  std::int64_t model_bytes = 8'000'000;  // per-member gradient buffer
  sim::Time step_interval = sim::Time::us(150);
  bool shuffle_placement = true;
};
[[nodiscard]] std::vector<FlowSpec> ml_collective_workload(
    std::int32_t num_hosts, std::int32_t hosts_per_rack,
    const MlCollectiveParams& params, sim::Rng& rng);

}  // namespace opera::workload
