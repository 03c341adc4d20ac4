// Per-packet ECMP: the one equal-cost next-hop pick every packet fabric
// uses (Opera's expander plane, the folded Clos up-paths, the static
// expander).
//
// What a real switch does — hash header fields — rather than drawing from
// a shared rng stream: the pick depends only on the packet and the deciding
// switch, never on the order events reach a queue, which is what keeps
// path selection (and therefore all output) bit-identical under any shard
// count. The inputs:
//   * flow id, sequence and packet type — spray a flow's packets across the
//     equal-cost choices (NDP-style packet spraying);
//   * the source-stamped send time (Packet::enqueued_at) — a retransmission
//     of a trimmed packet re-sprays instead of retaking its trimmed path;
//   * a per-switch salt (ecmp_salt) — de-correlates the choices successive
//     hops make for one packet.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/packet.h"
#include "sim/simulator.h"

namespace opera::net {

// Salt for one forwarding decision point: a network seed plus up to two
// switch coordinates (e.g. tier and index, or rack and routing slice).
[[nodiscard]] constexpr std::uint64_t ecmp_salt(std::uint64_t seed, std::uint64_t a,
                                                std::uint64_t b = 0) {
  return sim::mix64(seed ^ (a << 32) ^ b);
}

// Index in [0, n) of the equal-cost choice `pkt` takes at the switch
// salted `salt`. `n` must be positive.
[[nodiscard]] inline std::size_t ecmp_pick(const Packet& pkt, std::uint64_t salt,
                                           std::size_t n) {
  const std::uint64_t id =
      sim::mix64(pkt.flow_id ^ (pkt.seq * 0x9E3779B97F4A7C15ULL) ^
                 (static_cast<std::uint64_t>(static_cast<std::uint8_t>(pkt.type)) << 56));
  const auto sent = static_cast<std::uint64_t>(pkt.enqueued_at.picoseconds());
  return static_cast<std::size_t>(sim::mix64(id ^ sim::mix64(sent) ^ salt) % n);
}

}  // namespace opera::net
