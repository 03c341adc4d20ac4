// Golden digests of the randomized topology generators. Every Opera and
// expander fabric, every bench row and every benchmark fingerprint is
// downstream of these draws, so the sampler's exact output — and the rng
// position it leaves behind — is pinned here. A sampler rewrite that
// changes any of these digests changes every seeded topology in the repo.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/checkpoint.h"
#include "sim/rng.h"
#include "topo/one_factorization.h"
#include "topo/opera_topology.h"
#include "topo/random_regular.h"

namespace opera::topo {
namespace {

// Digest of a factorization plus the caller's rng cursor after it.
std::uint64_t factorization_digest(Vertex n, std::uint64_t seed,
                                   const FactorizationBudget& budget = {}) {
  sim::Rng rng(seed);
  const auto ms = random_factorization(n, rng, budget);
  EXPECT_TRUE(is_complete_factorization(ms)) << "n=" << n << " seed=" << seed;
  sim::Fingerprint fp;
  fp.mix_u64(ms.size());
  for (const auto& m : ms) {
    for (const Vertex w : m) fp.mix_i64(w);
  }
  rng.fingerprint(fp);
  return fp.digest();
}

// Digest of a regular graph's adjacency lists plus the rng cursor after it.
std::uint64_t regular_digest(Vertex n, Vertex u, std::uint64_t seed,
                             const RegularGraphBudget& budget = {}) {
  sim::Rng rng(seed);
  const Graph g = random_regular_graph(n, u, rng, budget);
  sim::Fingerprint fp;
  fp.mix_u64(g.num_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    fp.mix_u64(g.neighbors(v).size());
    for (const Vertex w : g.neighbors(v)) fp.mix_i64(w);
  }
  rng.fingerprint(fp);
  return fp.digest();
}

// Digest of an offset-schedule Opera topology: the accepted realization's
// matchings and each switch's dealt cycling order.
std::uint64_t opera_digest(Vertex racks, int switches, std::uint64_t seed) {
  OperaParams params;
  params.num_racks = racks;
  params.num_switches = switches;
  params.hosts_per_rack = switches;
  params.seed = seed;
  const OperaTopology topo(params);
  sim::Fingerprint fp;
  for (const auto& m : topo.matchings()) {
    for (const Vertex w : m) fp.mix_i64(w);
  }
  for (int sw = 0; sw < switches; ++sw) {
    for (const std::size_t i : topo.switch_matchings(sw)) fp.mix_u64(i);
  }
  return fp.digest();
}

TEST(SamplerGolden, FactorizationEvenSizes) {
  EXPECT_EQ(factorization_digest(16, 1), 1154964146368735857ULL);
  EXPECT_EQ(factorization_digest(54, 2), 1256862718837184908ULL);
  // The paper's 108-rack testbed scale.
  EXPECT_EQ(factorization_digest(108, 3), 11343998206244525239ULL);
}

TEST(SamplerGolden, FactorizationOddSizes) {
  EXPECT_EQ(factorization_digest(21, 1), 594723667750048241ULL);
  EXPECT_EQ(factorization_digest(107, 2), 12105037084832299527ULL);
  EXPECT_EQ(factorization_digest(217, 3), 14956851941360789124ULL);
}

TEST(SamplerGolden, FactorizationK24) {
  // k=24: 432 racks, the seed OperaTopology's attempt 0 draws with.
  EXPECT_EQ(factorization_digest(432, 1), 8629966463369147954ULL);
}

TEST(SamplerGolden, FactorizationSeedBumpPath) {
  // One restart with one retry per round wedges attempt 0 at this seed, so
  // the digest covers the bumped stream too.
  testing::internal::CaptureStderr();
  const std::uint64_t digest = factorization_digest(54, 4, FactorizationBudget{1, 1, 64});
  const std::string warnings = testing::internal::GetCapturedStderr();
  EXPECT_NE(warnings.find("bumping to seed"), std::string::npos) << warnings;
  EXPECT_EQ(digest, 5841440048757387372ULL);
}

TEST(SamplerGolden, RegularGraphPaperExpander) {
  // ExpanderParams' defaults: 130 ToRs, u = 7, seed 1.
  EXPECT_EQ(regular_digest(130, 7, 1), 10949402875853599224ULL);
}

TEST(SamplerGolden, RegularGraphOddSizes) {
  // Odd n leaves one vertex out per layer through the index compaction.
  EXPECT_EQ(regular_digest(15, 4, 1), 2077395950560655493ULL);
  EXPECT_EQ(regular_digest(129, 6, 2), 5891183002800543439ULL);
}

TEST(SamplerGolden, RegularGraphSeedBumpPath) {
  testing::internal::CaptureStderr();
  const std::uint64_t digest = regular_digest(16, 14, 3, RegularGraphBudget{1, 1, 64});
  const std::string warnings = testing::internal::GetCapturedStderr();
  EXPECT_NE(warnings.find("bumping to seed"), std::string::npos) << warnings;
  EXPECT_EQ(digest, 8863829105174713065ULL);
}

TEST(SamplerGolden, OperaTopologyAcceptance) {
  // The generate-and-test keeps the same realization: the paper's 108-rack
  // fabric (every slice tested) and k=24 (sampled slices).
  EXPECT_EQ(opera_digest(108, 6, 1), 2465022011019546397ULL);
  EXPECT_EQ(opera_digest(432, 12, 1), 44566201936691547ULL);
}

}  // namespace
}  // namespace opera::topo
