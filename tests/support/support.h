// Shared test fixtures: the small Opera and RotorNet testbeds, the mixed
// mouse/elephant workload, and the run-equality oracle (a snapshot of a
// finished run plus one comparison) that the parity, checkpoint and storm
// suites pin their claims with. A fixture used by two or more test files
// lives here; a one-file fixture stays in its file.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/network.h"
#include "core/opera_network.h"
#include "topo/opera_topology.h"

namespace opera::support {

// A small rotor fabric: `racks` racks of `hosts_per_rack` hosts under `u`
// rotor switches. The defaults are the 16x4 (k=8) testbed; each test file
// picks its own seeds.
struct Testbed {
  topo::Vertex racks = 16;
  int u = 4;
  int hosts_per_rack = 4;
  std::uint64_t topology_seed = 3;
  std::uint64_t network_seed = core::OperaConfig{}.seed;
  std::int64_t bulk_threshold_bytes = core::OperaConfig{}.bulk_threshold_bytes;

  [[nodiscard]] constexpr topo::OperaParams topology() const {
    return {.num_racks = racks,
            .num_switches = u,
            .seed = topology_seed,
            .hosts_per_rack = hosts_per_rack};
  }
};

// The mixed workload's testbeds (k=8 16x4 and k=16 24x8): the bulk
// threshold sits below its 600 KB elephants, so both transports run.
inline constexpr Testbed kMixedK8{.bulk_threshold_bytes = 100'000};
inline constexpr Testbed kMixedK16{
    .racks = 24, .u = 8, .hosts_per_rack = 8, .bulk_threshold_bytes = 100'000};

// The testbed as Opera: offset schedule, expander low-latency plane.
[[nodiscard]] core::OperaConfig opera_testbed(const Testbed& testbed = {});

// The testbed as FabricConfig::rotornet_config lowers RotorNet: unison
// schedule over `u` rotor switches, plus one donated to a packet core when
// `hybrid` (without it every flow is bulk).
[[nodiscard]] core::OperaConfig rotornet_testbed(const Testbed& testbed, bool hybrid);

// `flows` flows from a fixed seed, one every 5 us between random distinct
// hosts: every fourth a 600 KB elephant (RotorLB bulk, with VLB relaying,
// on a rotor fabric whose bulk threshold is below that), the rest 20 KB
// NDP mice.
void submit_mixed_workload(core::Network& net, int flows = 160);

struct Completion {
  std::uint64_t id;
  std::int64_t start_ps;
  std::int64_t end_ps;
  bool operator==(const Completion&) const = default;
};
void PrintTo(const Completion& c, std::ostream* os);

// What the oracles compare of a finished run.
struct RunSnapshot {
  // The tracker's completion stream, in stream order (canonical for any
  // shard count).
  std::vector<Completion> completions;
  std::uint64_t events = 0;  // Network::events_executed
  std::uint64_t digest = 0;  // exp::state_digest: every layer's state
  // ToR trim/drop counters; only an OperaNetwork (Opera, RotorNet) has them.
  std::optional<core::OperaNetwork::TorStats> tor;
};
[[nodiscard]] RunSnapshot snapshot(const core::Network& net);

// Runs `net` to 40 ms, the mixed workload's horizon, and snapshots it.
[[nodiscard]] RunSnapshot finish_run(core::Network& net);

// The mixed workload end to end: submits it and finishes the run. With
// `with_failures` (`net` must then be an OperaNetwork), two failures land
// at fixed simulated times with traffic in flight: rack 1's uplink to
// switch 0 at 300 us, then switch 2 at 3 ms, past the first failure's
// reconvergence.
[[nodiscard]] RunSnapshot run_mixed_workload(core::Network& net,
                                             bool with_failures = false);

// Fails the current test, naming `label`, for every field of `actual` that
// differs from `expected`; of the completion streams it reports a length
// mismatch or else the first completion that differs. An `expected` run
// that completed no flow fails too: equality with it would show nothing.
void expect_same_run(const RunSnapshot& expected, const RunSnapshot& actual,
                     const std::string& label);

}  // namespace opera::support
