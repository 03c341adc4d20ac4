// One-factorization of the complete graph (paper §3.3).
//
// Opera's topology starts by factoring the N x N all-ones matrix into N
// disjoint symmetric matchings — i.e., N involutive permutations whose
// union covers every (src, dst) pair, diagonal included. For even N that
// is N-1 perfect matchings of K_N plus the identity matching (rack
// "connected" to itself — a slot that carries no traffic). For odd N each
// matching leaves exactly one rack unmatched.
//
// circle_factorization() is the deterministic circle method. The paper
// randomizes the factorization: random_factorization() draws the N-1
// perfect matchings one after another, each over the pairs no earlier
// matching used, and shuffles the matching order. The paper also uses
// *graph lifting* to build large factorizations from small ones;
// `lift_double()` implements the doubling construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "topo/graph.h"

namespace opera::topo {

// A matching is an involutive permutation: match[v] == w means v<->w is a
// circuit in this matching; match[v] == v means v is unmatched (self-loop).
using Matching = std::vector<Vertex>;

// Returns true iff `m` is an involution on n vertices.
[[nodiscard]] bool is_valid_matching(const Matching& m);

// Returns true iff the matchings are pairwise disjoint (no rack pair
// appears in two matchings) and their union covers all of K_N plus the
// diagonal.
[[nodiscard]] bool is_complete_factorization(const std::vector<Matching>& ms);

// Deterministic circle-method factorization: exactly N matchings for any
// N >= 1. For even N: the identity matching plus N-1 perfect matchings.
// For odd N: N matchings, each leaving one vertex self-matched.
[[nodiscard]] std::vector<Matching> circle_factorization(Vertex n);

// Retry budgets for the randomized construction. The construction draws
// random matchings that can wedge (the tail remainder may have no perfect
// matching); restarts and per-round retries almost always recover. If the
// whole budget is exhausted on the caller's rng stream anyway — the stream
// can be pathological for a given n — the generator *bumps the seed*:
// it draws a fresh seed from the caller's rng, retries the full budget on
// an independent stream, and repeats up to `seed_bumps` times, warning
// loudly on stderr with the bumped seed each time. Only after every bump
// fails does it throw. The success path without bumps is byte-identical
// to the historical behavior (attempt 0 uses the caller's rng directly).
struct FactorizationBudget {
  int max_restarts = 200;     // from-scratch construction restarts
  int matching_retries = 30;  // per-round random matching draws
  int seed_bumps = 8;         // independent reseeded reruns of the above
};

// Random factorization (the paper's "randomly factor"). Even N: the
// identity matching plus N-1 random perfect matchings drawn in sequence by
// random_disjoint_matching, each avoiding every pair an earlier one used;
// when the tail wedges (the remainder has no perfect matching) the whole
// construction restarts. Odd N: factor N+1 and strip the dummy vertex, so
// its partner in each matching becomes self-matched. Finishes with a
// shuffle of the matching order.
[[nodiscard]] std::vector<Matching> random_factorization(
    Vertex n, sim::Rng& rng, const FactorizationBudget& budget = {});

// The pairs earlier matchings already took, as an n x n bit matrix: row v
// has bit w set when (v, w) is used. The diagonal starts set, so a vertex
// is never matched to itself. Rows are 64-bit words so the sampler tests a
// whole row with a few AND/popcount operations.
struct UsedPairs {
  explicit UsedPairs(Vertex num_vertices);

  [[nodiscard]] const std::uint64_t* row(Vertex v) const {
    return bits.data() + static_cast<std::size_t>(v) * words;
  }
  void set(Vertex v, Vertex w) {
    bits[static_cast<std::size_t>(v) * words + (static_cast<std::size_t>(w) >> 6)] |=
        std::uint64_t{1} << (w & 63);
  }
  // Marks (v, m[v]) for every v.
  void mark(const Matching& m);

  Vertex n;
  std::size_t words;                // per row: ceil(n / 64)
  std::vector<std::uint64_t> bits;  // row-major, n * words
};

// Draws one random perfect matching on used.n (even) vertices that avoids
// the pairs marked in `used`, by randomized greedy matching with
// steal-repair. Returns an empty vector on failure. This is the sampler
// behind random_factorization and random_regular_graph.
[[nodiscard]] Matching random_disjoint_matching(const UsedPairs& used, sim::Rng& rng);

// Graph lifting: build a factorization of the all-ones 2N x 2N matrix from
// one of the N x N matrix. Within-copy pairs reuse the small factorization
// on both copies simultaneously; cross-copy pairs are covered by the N
// cyclic-shift matchings of K_{N,N}. Requires even N so the small perfect
// matchings stay perfect in the lift.
[[nodiscard]] std::vector<Matching> lift_double(const std::vector<Matching>& base);

// The (simple) graph formed by a union of matchings: edge v<->m[v] for
// every matched pair. Self-loops contribute nothing.
[[nodiscard]] Graph union_graph(const std::vector<Matching>& ms,
                                const std::vector<std::size_t>& which);

}  // namespace opera::topo
