#include "topo/one_factorization.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <stdexcept>

namespace opera::topo {

bool is_valid_matching(const Matching& m) {
  const auto n = static_cast<Vertex>(m.size());
  for (Vertex v = 0; v < n; ++v) {
    const Vertex w = m[static_cast<std::size_t>(v)];
    if (w < 0 || w >= n) return false;
    if (m[static_cast<std::size_t>(w)] != v) return false;
  }
  return true;
}

bool is_complete_factorization(const std::vector<Matching>& ms) {
  if (ms.empty()) return false;
  const std::size_t n = ms.front().size();
  // covered[a*n + b] marks pair (a, b); the factorization must cover each
  // ordered pair exactly once (diagonal included, via self-matches).
  std::vector<bool> covered(n * n, false);
  for (const auto& m : ms) {
    if (m.size() != n || !is_valid_matching(m)) return false;
    for (std::size_t v = 0; v < n; ++v) {
      const auto w = static_cast<std::size_t>(m[v]);
      if (covered[v * n + w]) return false;  // overlap between matchings
      covered[v * n + w] = true;
    }
  }
  for (const bool c : covered) {
    if (!c) return false;  // some pair never connected
  }
  return true;
}

std::vector<Matching> circle_factorization(Vertex n) {
  assert(n >= 1);
  if (n % 2 == 1) {
    // Odd N: factor K_{N+1} and strip the dummy vertex N; the dummy's
    // partner becomes self-matched in that round.
    const auto big = circle_factorization(n + 1);
    std::vector<Matching> out;
    out.reserve(static_cast<std::size_t>(n));
    for (const auto& m : big) {
      // The identity matching of the even factorization would map the dummy
      // to itself and every real vertex to itself; dropping the dummy makes
      // it the all-self matching, which we keep (it covers the diagonal).
      Matching small(static_cast<std::size_t>(n));
      for (Vertex v = 0; v < n; ++v) {
        const Vertex w = m[static_cast<std::size_t>(v)];
        small[static_cast<std::size_t>(v)] = (w == n) ? v : w;
      }
      out.push_back(std::move(small));
    }
    // K_{N+1} factorization has N+1 matchings; the identity round and one
    // other round merge... they do not: each of the N+1 rounds is distinct.
    // But the diagonal pair (v, v) is now covered multiple times (once in
    // the identity round, once whenever v was the dummy's partner). Keep
    // only rounds that are not the pure identity beyond the first.
    // Simpler and still N matchings: drop the identity round entirely; the
    // diagonal is covered by the self-matches created by the dummy.
    std::vector<Matching> filtered;
    for (auto& m : out) {
      bool identity = true;
      for (Vertex v = 0; v < n; ++v) {
        if (m[static_cast<std::size_t>(v)] != v) { identity = false; break; }
      }
      if (!identity) filtered.push_back(std::move(m));
    }
    return filtered;
  }

  // Even N, circle method: fix vertex n-1 at the hub; rotate 0..n-2.
  // Round r (r = 0..n-2) matches hub<->r and (r - i) <-> (r + i) mod n-1.
  std::vector<Matching> out;
  out.reserve(static_cast<std::size_t>(n));
  // Identity matching first: covers the diagonal of the all-ones matrix.
  Matching ident(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) ident[static_cast<std::size_t>(v)] = v;
  out.push_back(std::move(ident));

  const Vertex m = n - 1;  // modulus for the rotating vertices
  for (Vertex r = 0; r < m; ++r) {
    Matching match(static_cast<std::size_t>(n));
    match[static_cast<std::size_t>(n - 1)] = r;
    match[static_cast<std::size_t>(r)] = n - 1;
    for (Vertex i = 1; i <= (m - 1) / 2; ++i) {
      const Vertex a = (r + i) % m;
      const Vertex b = (r - i % m + m) % m;
      match[static_cast<std::size_t>(a)] = b;
      match[static_cast<std::size_t>(b)] = a;
    }
    out.push_back(std::move(match));
  }
  return out;
}

UsedPairs::UsedPairs(Vertex num_vertices)
    : n(num_vertices),
      words((static_cast<std::size_t>(num_vertices) + 63) / 64),
      bits(static_cast<std::size_t>(num_vertices) * words, 0) {
  for (Vertex v = 0; v < n; ++v) set(v, v);
}

void UsedPairs::mark(const Matching& m) {
  for (Vertex v = 0; v < n; ++v) set(v, m[static_cast<std::size_t>(v)]);
}

namespace {

// Position of the r-th (0-based) set bit of x; requires r < popcount(x).
int select_bit(std::uint64_t x, std::size_t r) {
  for (; r > 0; --r) x &= x - 1;
  return std::countr_zero(x);
}

}  // namespace

// Uses randomized greedy matching with a local repair step: when a vertex
// has no unmatched compatible partner left, it steals a compatible matched
// vertex and releases that vertex's partner back into the pool. Returns an
// empty matching on failure (repair budget exhausted or a vertex ran out
// of compatible partners entirely).
//
// The pool keeps stale entries (vertices matched after they were pushed)
// and duplicates (a released vertex pushed again while an older entry of
// it remains); a candidate is drawn by its position among the compatible
// entries in pool order, so both shape the draw and are preserved exactly.
Matching random_disjoint_matching(const UsedPairs& used, sim::Rng& rng) {
  const Vertex n = used.n;
  const auto sz = static_cast<std::size_t>(n);
  const std::size_t words = used.words;
  Matching match(sz, kNoVertex);
  std::vector<std::uint64_t> matched(words, 0);  // bit w: match[w] != kNoVertex
  std::vector<std::uint64_t> free_for_v(words);  // bit w: unmatched, (v, w) unused
  std::vector<Vertex> pool;
  pool.reserve(sz);
  for (Vertex v = 0; v < n; ++v) pool.push_back(v);
  rng.shuffle(std::span<Vertex>{pool});

  const auto pair_up = [&](Vertex a, Vertex b) {
    match[static_cast<std::size_t>(a)] = b;
    match[static_cast<std::size_t>(b)] = a;
    matched[static_cast<std::size_t>(a) >> 6] |= std::uint64_t{1} << (a & 63);
    matched[static_cast<std::size_t>(b) >> 6] |= std::uint64_t{1} << (b & 63);
  };

  std::int64_t repair_budget = 40LL * n;
  std::vector<Vertex> candidates(sz);
  while (!pool.empty()) {
    // Pop a random unmatched vertex (entries may be stale after repairs).
    const std::size_t vi = rng.index(pool.size());
    const Vertex v = pool[vi];
    pool[vi] = pool.back();
    pool.pop_back();
    if (match[static_cast<std::size_t>(v)] != kNoVertex) continue;
    const std::uint64_t* v_used = used.row(v);

    // Preferred: a compatible unmatched partner, in pool order. The scan is
    // branchless: every entry is written, and the cursor advances only past
    // compatible ones. (w == v cannot qualify: the diagonal is used.)
    for (std::size_t i = 0; i < words; ++i) free_for_v[i] = ~(matched[i] | v_used[i]);
    std::size_t count = 0;
    for (const Vertex w : pool) {
      candidates[count] = w;
      count += (free_for_v[static_cast<std::size_t>(w) >> 6] >> (w & 63)) & 1U;
    }
    if (count > 0) {
      pair_up(v, candidates[rng.index(count)]);
      continue;
    }

    // Repair: steal a compatible matched vertex w from its partner x; w is
    // the k-th such vertex in ascending order.
    count = 0;
    for (std::size_t i = 0; i < words; ++i) {
      count += static_cast<std::size_t>(std::popcount(matched[i] & ~v_used[i]));
    }
    if (count == 0 || --repair_budget < 0) return {};  // failure
    std::size_t k = rng.index(count);
    std::size_t word = 0;
    for (;; ++word) {
      const std::uint64_t stealable = matched[word] & ~v_used[word];
      const auto here = static_cast<std::size_t>(std::popcount(stealable));
      if (k < here) {
        k = static_cast<std::size_t>(select_bit(stealable, k));
        break;
      }
      k -= here;
    }
    const auto w = static_cast<Vertex>(word * 64 + k);
    const Vertex x = match[static_cast<std::size_t>(w)];
    match[static_cast<std::size_t>(x)] = kNoVertex;
    matched[static_cast<std::size_t>(x) >> 6] &= ~(std::uint64_t{1} << (x & 63));
    pair_up(v, w);
    pool.push_back(x);
  }
  return match;
}

namespace {

// Random factorization of the even complete graph: identity matching plus
// n-1 random perfect matchings drawn sequentially, each avoiding all
// previously used edges. Restarts from scratch when the tail of the
// construction wedges (e.g. the penultimate 2-regular remainder has an odd
// cycle). Returns empty when the restart budget is exhausted — the caller
// decides whether to bump the seed or give up.
std::vector<Matching> random_factorization_even_once(
    Vertex n, sim::Rng& rng, const FactorizationBudget& budget) {
  const auto sz = static_cast<std::size_t>(n);
  for (int restart = 0; restart < budget.max_restarts; ++restart) {
    UsedPairs used(n);
    std::vector<Matching> out;
    Matching ident(sz);
    for (Vertex v = 0; v < n; ++v) ident[static_cast<std::size_t>(v)] = v;
    out.push_back(std::move(ident));

    bool ok = true;
    for (Vertex round = 0; round + 1 < n && ok; ++round) {
      ok = false;
      for (int retry = 0; retry < budget.matching_retries; ++retry) {
        Matching m = random_disjoint_matching(used, rng);
        if (m.empty()) continue;
        used.mark(m);
        out.push_back(std::move(m));
        ok = true;
        break;
      }
    }
    if (ok) return out;
  }
  return {};
}

// Seed-bumping wrapper: attempt 0 runs on the caller's rng (the success
// path is byte-identical to the pre-budget behavior); every subsequent
// attempt reseeds an independent stream from a value drawn off the
// caller's rng, warning loudly so the changed randomization is auditable.
std::vector<Matching> random_factorization_even(
    Vertex n, sim::Rng& rng, const FactorizationBudget& budget) {
  auto out = random_factorization_even_once(n, rng, budget);
  if (!out.empty()) return out;
  for (int bump = 0; bump < budget.seed_bumps; ++bump) {
    const std::uint64_t seed = rng.next_u64();
    std::fprintf(stderr,
                 "random_factorization: restart budget exhausted (n=%d, "
                 "%d restarts x %d retries); bumping to seed %llu "
                 "(attempt %d/%d)\n",
                 static_cast<int>(n), budget.max_restarts,
                 budget.matching_retries,
                 static_cast<unsigned long long>(seed), bump + 1,
                 budget.seed_bumps);
    sim::Rng bumped(seed);
    out = random_factorization_even_once(n, bumped, budget);
    if (!out.empty()) return out;
  }
  throw std::runtime_error(
      "random_factorization: restart budget exhausted after all seed bumps");
}

}  // namespace

std::vector<Matching> random_factorization(Vertex n, sim::Rng& rng,
                                           const FactorizationBudget& budget) {
  if (n % 2 == 1) {
    // Factor the even N+1 graph, then strip the dummy vertex: the dummy's
    // partner becomes self-matched, and the (now trivial) identity matching
    // is dropped, leaving exactly N matchings (see circle_factorization).
    const auto big = random_factorization_even(n + 1, rng, budget);
    std::vector<Matching> out;
    for (const auto& m : big) {
      bool identity = true;
      Matching small(static_cast<std::size_t>(n));
      for (Vertex v = 0; v < n; ++v) {
        const Vertex w = m[static_cast<std::size_t>(v)];
        small[static_cast<std::size_t>(v)] = (w == n) ? v : w;
        if (small[static_cast<std::size_t>(v)] != v) identity = false;
      }
      if (!identity) out.push_back(std::move(small));
    }
    rng.shuffle(std::span<Matching>{out});
    return out;
  }
  auto ms = random_factorization_even(n, rng, budget);
  rng.shuffle(std::span<Matching>{ms});
  return ms;
}

std::vector<Matching> lift_double(const std::vector<Matching>& base) {
  assert(!base.empty());
  const auto n = static_cast<Vertex>(base.front().size());
  assert(n % 2 == 0 && "lift_double requires an even base factorization");
  assert(is_complete_factorization(base));
  const auto big_n = static_cast<std::size_t>(2 * n);
  std::vector<Matching> out;
  out.reserve(big_n);

  // Within-copy matchings: apply each base matching to both copies.
  // (The base identity matching lifts to the identity of the big graph.)
  for (const auto& m : base) {
    Matching lifted(big_n);
    for (Vertex v = 0; v < n; ++v) {
      const Vertex w = m[static_cast<std::size_t>(v)];
      lifted[static_cast<std::size_t>(v)] = w;
      lifted[static_cast<std::size_t>(v + n)] = w + n;
    }
    out.push_back(std::move(lifted));
  }
  // Cross-copy matchings: N cyclic shifts of K_{N,N}. Shift s matches
  // vertex i in copy 0 with vertex (i + s) mod N in copy 1.
  for (Vertex s = 0; s < n; ++s) {
    Matching lifted(big_n);
    for (Vertex i = 0; i < n; ++i) {
      const Vertex j = (i + s) % n;
      lifted[static_cast<std::size_t>(i)] = j + n;
      lifted[static_cast<std::size_t>(j + n)] = i;
    }
    out.push_back(std::move(lifted));
  }
  return out;
}

Graph union_graph(const std::vector<Matching>& ms,
                  const std::vector<std::size_t>& which) {
  assert(!ms.empty());
  Graph g(static_cast<Vertex>(ms.front().size()));
  for (const std::size_t idx : which) {
    const auto& m = ms[idx];
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const Vertex w = m[static_cast<std::size_t>(v)];
      if (v < w) g.add_edge(v, w);
    }
  }
  return g;
}

}  // namespace opera::topo
