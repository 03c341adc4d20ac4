#include "sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>

namespace opera::sim {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 8);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

// Rejection sampling as uniform_int has always drawn: every draw at or
// above max - max % range is redrawn. Returns the offset from lo.
std::uint64_t reference_offset(Rng& rng, std::uint64_t range) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t limit = kMax - kMax % range;
  std::uint64_t v = rng.next_u64();
  while (v >= limit) v = rng.next_u64();
  return v % range;
}

// uniform_int only computes the rejection limit for draws near the top of
// the 64-bit range; the values and the stream position must still match
// the reference formula draw for draw, including ranges where about half
// the draws are rejected (2^63 + 1) and ranges that overflow int64_t.
TEST(Rng, UniformIntMatchesRejectionFormula) {
  constexpr std::int64_t kLo = std::numeric_limits<std::int64_t>::min();
  for (const std::uint64_t range :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{432},
        (std::uint64_t{1} << 32) + 1, (std::uint64_t{1} << 63) + 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    Rng got(5);
    Rng want(5);
    const auto hi = static_cast<std::int64_t>(static_cast<std::uint64_t>(kLo) + (range - 1));
    for (int i = 0; i < 1000; ++i) {
      const auto expected = static_cast<std::int64_t>(static_cast<std::uint64_t>(kLo) +
                                                      reference_offset(want, range));
      ASSERT_EQ(got.uniform_int(kLo, hi), expected) << "range " << range << " draw " << i;
      if (range <= (std::uint64_t{1} << 63)) {
        ASSERT_EQ(got.index(range), reference_offset(want, range))
            << "range " << range << " draw " << i;
      }
    }
    EXPECT_EQ(got.next_u64(), want.next_u64()) << "range " << range;
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kSamples, 4.0, 0.15);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(13);
  const auto p = rng.permutation(257);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(17);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 30u);  // distinct
  for (const auto v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleAllElements) {
  Rng rng(19);
  const auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(std::span<int>{v});
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace opera::sim
