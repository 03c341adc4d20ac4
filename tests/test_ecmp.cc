// The shared per-packet ECMP hash (net/ecmp.h): deterministic, uniform
// over the equal-cost choices, and re-sprayed on retransmission.
#include "net/ecmp.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace opera::net {
namespace {

Packet packet(std::uint64_t flow, std::uint64_t seq, sim::Time sent,
              PacketType type = PacketType::kData) {
  Packet pkt;
  pkt.flow_id = flow;
  pkt.seq = seq;
  pkt.type = type;
  pkt.enqueued_at = sent;
  return pkt;
}

TEST(Ecmp, SameInputsSamePick) {
  const std::uint64_t salt = ecmp_salt(42, 3, 17);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const Packet a = packet(9, seq, sim::Time::us(5));
    const Packet b = packet(9, seq, sim::Time::us(5));
    EXPECT_EQ(ecmp_pick(a, salt, 7), ecmp_pick(b, salt, 7));
  }
  EXPECT_EQ(ecmp_salt(42, 3, 17), salt);
}

TEST(Ecmp, UniformWithinChiSquareBound) {
  // Critical chi-square values at p = 0.001 for n - 1 degrees of freedom.
  const struct {
    std::size_t n;
    double critical;
  } cases[] = {{2, 10.83}, {3, 13.82}, {7, 22.46}};
  constexpr int kPackets = 10'000;
  const std::uint64_t salt = ecmp_salt(42, 0, 5);
  for (const auto& c : cases) {
    std::vector<int> counts(c.n, 0);
    for (int i = 0; i < kPackets; ++i) {
      const auto flow = static_cast<std::uint64_t>(1 + i / 100);
      const auto seq = static_cast<std::uint64_t>(i % 100);
      ++counts[ecmp_pick(packet(flow, seq, sim::Time::us(i)), salt, c.n)];
    }
    const double expected = static_cast<double>(kPackets) / static_cast<double>(c.n);
    double chi2 = 0;
    for (const int k : counts) chi2 += (k - expected) * (k - expected) / expected;
    EXPECT_LT(chi2, c.critical) << "n=" << c.n;
  }
}

// Fraction of (flow, seq) pairs whose two sends — at different send times,
// same switch — take the same choice out of `n`.
double resend_agreement(std::size_t n) {
  constexpr int kPairs = 10'000;
  const std::uint64_t salt = ecmp_salt(42, 1, 2);
  int same = 0;
  for (int i = 0; i < kPairs; ++i) {
    const auto flow = static_cast<std::uint64_t>(1 + i / 50);
    const auto seq = static_cast<std::uint64_t>(i % 50);
    const Packet first = packet(flow, seq, sim::Time::us(10));
    const Packet resend =
        packet(flow, seq, sim::Time::us(10) + sim::Time::ns(1 + i % 900));
    same += ecmp_pick(first, salt, n) == ecmp_pick(resend, salt, n) ? 1 : 0;
  }
  return static_cast<double>(same) / kPairs;
}

TEST(Ecmp, RetransmissionReSprays) {
  // A retransmitted packet is a fresh draw, not a replay of the path that
  // trimmed it: agreement sits near 1/n rather than at 1.
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
    EXPECT_NEAR(resend_agreement(n), 1.0 / static_cast<double>(n), 0.03) << "n=" << n;
  }
}

}  // namespace
}  // namespace opera::net
