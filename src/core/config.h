// Shared configuration for the packet-level networks, defaulted to the
// paper's constants (§4-§5): 10 Gb/s links, 1500 B MTU, 500 ns inter-ToR
// propagation, 12 KB NDP data queues, ~100 us topology slices (epsilon =
// 90 us end-to-end budget + 10 us rotor reconfiguration), and a 15 MB
// bulk-flow threshold.
#pragma once

#include <cstdint>

#include "net/queue.h"
#include "sim/time.h"
#include "topo/opera_topology.h"
#include "topo/slice_table_cache.h"

namespace opera::core {

// checkpoint:v1 fields=2
struct LinkParams {
  double rate_bps = 10e9;
  sim::Time propagation = sim::Time::ns(500);  // 100 m of fiber
};

// checkpoint:v1 fields=4
struct SliceParams {
  sim::Time duration = sim::Time::us(99);       // epsilon + r
  sim::Time reconfiguration = sim::Time::us(10);  // rotor retarget time
  sim::Time guard = sim::Time::us(1);           // de-synchronization margin
  // The paper's epsilon rule: packets are never routed through a circuit
  // with an impending reconfiguration. In the last `drain_window` of a
  // slice, low-latency forwarding switches to the next slice's tables so
  // queued packets drain off the about-to-reconfigure uplinks (sized to
  // the worst-case ToR queue drain time).
  sim::Time drain_window = sim::Time::us(30);
};

// Where inter-rack low-latency traffic and control packets ride:
//   kExpander      — Opera: per-slice ECMP tables over the settled
//                    circuits (paper §4.3); bulk losses NACK in band;
//   kPacketCore    — hybrid RotorNet: one extra ToR uplink to an
//                    idealized non-blocking packet switch;
//   kDirectCircuit — all-optical RotorNet: the current direct circuit,
//                    if any.
// The two RotorNet planes NACK bulk losses out of band (see
// OperaNetwork::nack).
enum class LowLatencyPlane : std::uint8_t { kExpander, kPacketCore, kDirectCircuit };

// checkpoint:v1 fields=10
struct OperaConfig {
  topo::OperaParams topology;  // defaults: 108 racks x 6 hosts (648 hosts)
  // Opera is the offset schedule with the expander plane; RotorNet (paper
  // §5, Fig. 7c) is the unison schedule with one of the other planes.
  topo::RotorSchedule schedule = topo::RotorSchedule::kOffset;
  LowLatencyPlane low_latency = LowLatencyPlane::kExpander;
  LinkParams link;
  SliceParams slice;
  // Flows at or above this size are bulk (wait for direct circuits); the
  // paper derives 15 MB from the ~10.7 ms cycle time (§4.1).
  std::int64_t bulk_threshold_bytes = 15'000'000;
  bool enable_vlb = true;  // RotorLB two-hop fallback for skewed demand
  std::uint64_t seed = 42;

  // Windowed slice-table cache (topo/slice_table_cache.h): number of
  // per-slice ECMP tables kept resident. 0 = auto — eager (all slices,
  // the historical behavior) while the full set fits the memory budget,
  // otherwise the largest window that does. The budget is the constant
  // topo::SliceTableCache::kDefaultBudgetBytes (16 MB). Up to paper scale
  // (N=108, ~3.3 MB of next-hop masks) auto stays eager; k=24 (N=432,
  // ~173 MB) windows ~41 tables and k=32 (N=768, ~940 MB) ~13.
  int slice_table_window = 0;

  // Shard count for the sharded event loop (docs/ARCHITECTURE.md "Sharded
  // execution"): racks are partitioned into this many domains, each with
  // its own event queue, synchronized with conservative lookahead =
  // link.propagation. Output is bit-identical for any value. 0 = auto:
  // $OPERA_TEST_THREADS when set, else 1 (the classic single-queue loop).
  int threads = 0;

  // Queue provisioning (paper §4.1-4.2): shallow low-latency queues keep
  // epsilon small; ToR bulk queues hold about two slices of circuit data.
  [[nodiscard]] net::PortQueue::Config tor_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 24'000;  // 8 full packets + headers (§4.1)
    q.control_capacity_bytes = 24'000;
    q.bulk_capacity_bytes = 2 * slice_bulk_budget();
    q.trim_low_latency = true;
    q.trim_bulk = false;  // RotorLB NACK path
    return q;
  }
  [[nodiscard]] net::PortQueue::Config host_queue_config() const {
    net::PortQueue::Config q;
    // Hosts buffer their own traffic; no in-NIC trimming.
    q.low_latency_capacity_bytes = 4'000'000;
    q.control_capacity_bytes = 1'000'000;
    q.bulk_capacity_bytes = 4 * slice_bulk_budget();
    q.trim_low_latency = false;
    q.trim_bulk = false;
    return q;
  }

  // Start of each slice during which no uplink carries traffic: none when
  // offset, the reconfiguration delay when unison (all rotors blink
  // together). Bulk is granted once it ends.
  [[nodiscard]] sim::Time dark_prefix() const {
    return schedule == topo::RotorSchedule::kUnison ? slice.reconfiguration
                                                    : sim::Time::zero();
  }

  // Bytes one uplink can carry in the usable part of a slice.
  [[nodiscard]] std::int64_t slice_bulk_budget() const {
    const sim::Time usable = slice.duration - slice.guard - dark_prefix();
    return static_cast<std::int64_t>(usable.to_seconds() * link.rate_bps / 8.0);
  }
  // Bytes one host link can source per slice (guard-adjusted so a burst
  // granted at a slice start drains before the boundary).
  [[nodiscard]] std::int64_t host_slice_budget() const { return slice_bulk_budget(); }

  // Cycle time (paper §4.1: Opera's 108 slices x ~99 us = 10.7 ms).
  [[nodiscard]] sim::Time cycle_time() const {
    return slice.duration * topo::schedule_slices(topology, schedule);
  }
};

// A static packet fabric (folded Clos or expander, `Structure` its
// topology parameters): NDP for both classes, per-packet ECMP spraying,
// and strict priority of the low-latency band over the bulk band, so
// short flows never queue behind >= threshold flows (the paper's "ideal
// priority queuing" comparison).
template <class Structure>
struct StaticNetConfig {
  Structure structure;
  LinkParams link;
  std::int64_t bulk_threshold_bytes = 15'000'000;
  std::uint64_t seed = 42;  // ECMP hash salt
  int threads = 0;          // shard count (see PacketFabric); 0 = auto

  [[nodiscard]] net::PortQueue::Config switch_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 12'000;  // NDP-shallow
    q.control_capacity_bytes = 24'000;
    q.bulk_capacity_bytes = 36'000;
    q.trim_low_latency = true;
    q.trim_bulk = true;  // bulk also runs NDP here
    return q;
  }
  [[nodiscard]] net::PortQueue::Config host_queue_config() const {
    net::PortQueue::Config q;
    q.low_latency_capacity_bytes = 4'000'000;
    q.control_capacity_bytes = 1'000'000;
    q.bulk_capacity_bytes = 4'000'000;
    q.trim_low_latency = false;
    q.trim_bulk = false;
    return q;
  }
};

}  // namespace opera::core
