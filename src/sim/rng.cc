#include "sim/rng.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace opera::sim {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  // Unsigned arithmetic: hi - lo may not fit an int64_t.
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias: draws at or above
  // limit = max - max % range are redrawn. limit > max - range, so a draw
  // at or below max - range is always kept and the division is paid only
  // for the rare draw above it.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = next_u64();
  if (v > kMax - range) {
    const std::uint64_t limit = kMax - kMax % range;
    while (v >= limit) v = next_u64();
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + v % range);
}

std::size_t Rng::index(std::size_t n) {
  assert(n > 0);
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  // Inverse-CDF; uniform() < 1 so the log argument is strictly positive.
  return -mean * std::log(1.0 - uniform());
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  shuffle(std::span<std::size_t>{p});
  return p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over an index vector.
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace opera::sim
