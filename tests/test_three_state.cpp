#include <gtest/gtest.h>

#include "core/init.hpp"
#include "core/process.hpp"
#include "core/three_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "reference_processes.hpp"

namespace ssmis {
namespace {

using ThreeState = EngineProcess<ThreeStateRule>;

std::vector<Color3> colors_of(const char* pattern, Vertex n) {
  // 'w' = white, '0' = black0, '1' = black1.
  std::vector<Color3> out(static_cast<std::size_t>(n));
  for (Vertex u = 0; u < n; ++u) {
    switch (pattern[u]) {
      case '0': out[static_cast<std::size_t>(u)] = Color3::kBlack0; break;
      case '1': out[static_cast<std::size_t>(u)] = Color3::kBlack1; break;
      default: out[static_cast<std::size_t>(u)] = Color3::kWhite; break;
    }
  }
  return out;
}

TEST(ThreeState, InitSizeMismatchThrows) {
  const Graph g = gen::path(3);
  EXPECT_THROW(ThreeState(g, colors_of("w", 1), ThreeStateRule(CoinOracle(1))),
               std::invalid_argument);
}

TEST(ThreeState, ActivePredicateDefinition5) {
  const Graph g = gen::path(4);  // 0-1-2-3
  const ThreeState p(g, colors_of("10ww", 4), ThreeStateRule(CoinOracle(1)));
  // 0 = black1: always active.
  EXPECT_TRUE(p.engine().active(0));
  // 1 = black0 with black1 neighbor: NOT active (will turn white).
  EXPECT_FALSE(p.engine().active(1));
  // 2 = white with black neighbor (vertex 1 is black0): not active.
  EXPECT_FALSE(p.engine().active(2));
  // 3 = white with all-white neighborhood: active.
  EXPECT_TRUE(p.engine().active(3));
}

TEST(ThreeState, Black0WithBlack1NeighborTurnsWhite) {
  const Graph g = gen::path(2);
  ThreeState p(g, colors_of("10", 2), ThreeStateRule(CoinOracle(5)));
  p.step();
  EXPECT_EQ(p.engine().color(1), Color3::kWhite);
  EXPECT_TRUE(is_black(p.engine().color(0)));  // black1 resamples within {black1, black0}
}

TEST(ThreeState, Black0WithoutBlack1NeighborResamples) {
  // Two adjacent black0 vertices: both active, both stay black.
  const Graph g = gen::path(2);
  ThreeState p(g, colors_of("00", 2), ThreeStateRule(CoinOracle(5)));
  p.step();
  EXPECT_TRUE(is_black(p.engine().color(0)));
  EXPECT_TRUE(is_black(p.engine().color(1)));
}

TEST(ThreeState, StableBlackAlternatesButStaysBlack) {
  // Singleton black vertex: perpetually resamples within {black1, black0}.
  const Graph g = Graph::from_edges(1, {});
  ThreeState p(g, colors_of("1", 1), ThreeStateRule(CoinOracle(9)));
  bool saw_black0 = false;
  bool saw_black1 = false;
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(is_black(p.engine().color(0)));
    EXPECT_TRUE(p.stabilized());
    if (p.engine().color(0) == Color3::kBlack0) saw_black0 = true;
    if (p.engine().color(0) == Color3::kBlack1) saw_black1 = true;
    p.step();
  }
  EXPECT_TRUE(saw_black0);
  EXPECT_TRUE(saw_black1);
}

TEST(ThreeState, MatchesReferenceImplementation) {
  const Graph g = gen::gnp(50, 0.12, 29);
  const CoinOracle coins(101);
  std::vector<Color3> ref = make_init3(g, InitPattern::kUniformRandom, coins);
  ThreeState p(g, ref, ThreeStateRule(coins));
  for (std::int64_t t = 1; t <= 200; ++t) {
    p.step();
    ref = testing::reference_step3(g, ref, coins, t);
    ASSERT_EQ(p.engine().colors(), ref) << "diverged at round " << t;
  }
}

TEST(ThreeState, MatchesReferenceOnCliqueFromAllBlack1) {
  const Graph g = gen::complete(16);
  const CoinOracle coins(31);
  std::vector<Color3> ref(16, Color3::kBlack1);
  ThreeState p(g, ref, ThreeStateRule(coins));
  for (std::int64_t t = 1; t <= 100; ++t) {
    p.step();
    ref = testing::reference_step3(g, ref, coins, t);
    ASSERT_EQ(p.engine().colors(), ref);
  }
}

TEST(ThreeState, StabilizedIffBlackSetIsMis) {
  const Graph g = gen::gnp(40, 0.15, 47);
  const CoinOracle coins(3);
  ThreeState p(g, make_init3(g, InitPattern::kUniformRandom, coins),
               ThreeStateRule(coins));
  for (int i = 0; i < 5000 && !p.stabilized(); ++i) {
    EXPECT_FALSE(is_mis(g, p.output_set()));
    p.step();
  }
  ASSERT_TRUE(p.stabilized());
  EXPECT_TRUE(is_mis(g, p.output_set()));
}

TEST(ThreeState, BlackSetFrozenAfterStabilization) {
  const Graph g = gen::gnp(30, 0.2, 7);
  const CoinOracle coins(5);
  ThreeState p(g, make_init3(g, InitPattern::kAllBlack, coins), ThreeStateRule(coins));
  const RunResult r = p.run(100000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  const auto mis = p.output_set();
  for (int i = 0; i < 100; ++i) {
    p.step();
    ASSERT_EQ(p.output_set(), mis);
  }
}

TEST(ThreeState, IsolatedWhiteVertexBecomesBlack) {
  // The documented isolated-vertex reading: an isolated white vertex is
  // active and joins the MIS.
  const Graph g = Graph::from_edges(2, {});
  ThreeState p(g, colors_of("ww", 2), ThreeStateRule(CoinOracle(3)));
  const RunResult r = p.run(100, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_black(p.engine().color(0)));
  EXPECT_TRUE(is_black(p.engine().color(1)));
}

TEST(ThreeState, AllInitPatternsStabilize) {
  const Graph g = gen::gnp(60, 0.1, 59);
  for (InitPattern pattern : all_init_patterns()) {
    const CoinOracle coins(67);
    ThreeState p(g, make_init3(g, pattern, coins), ThreeStateRule(coins));
    const RunResult r = p.run(50000, TraceMode::kNone);
    ASSERT_TRUE(r.stabilized) << to_string(pattern);
    EXPECT_TRUE(is_mis(g, p.output_set())) << to_string(pattern);
  }
}

TEST(ThreeState, CountsConsistent) {
  const Graph g = gen::gnp(35, 0.15, 61);
  const CoinOracle coins(71);
  ThreeState p(g, make_init3(g, InitPattern::kAlternating, coins), ThreeStateRule(coins));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(p.snapshot().black), p.output_set().size());
    Vertex active = 0;
    for (Vertex u = 0; u < 35; ++u)
      if (p.engine().active(u)) ++active;
    EXPECT_EQ(p.engine().num_active(), active);
    p.step();
  }
}

TEST(ThreeState, ForceColorRebuildsCounters) {
  const Graph g = gen::path(3);
  ThreeState p(g, colors_of("1w1", 3), ThreeStateRule(CoinOracle(1)));
  EXPECT_TRUE(p.stabilized());
  p.engine().force_color(1, Color3::kBlack0);
  EXPECT_FALSE(p.stabilized());
  EXPECT_EQ(p.engine().counter(1, ThreeStateRule::kBlack1Nbr), 2);
  EXPECT_EQ(p.engine().counter(0, ThreeStateRule::kBlackNbr), 1);
}

TEST(ThreeState, RemarkTenCliqueNoEmptyBlackSetOnceBlack) {
  // Remark 10's key fact: on K_n, once B_t != {} it never empties (black1
  // vertices resample to black; black0 may turn white only if a black1
  // neighbor persists). Spot-check over many seeds.
  const Graph g = gen::complete(12);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const CoinOracle coins(seed);
    ThreeState p(g, make_init3(g, InitPattern::kUniformRandom, coins),
                 ThreeStateRule(coins));
    bool seen_black = p.snapshot().black > 0;
    for (int i = 0; i < 100; ++i) {
      p.step();
      if (seen_black) {
        ASSERT_GT(p.snapshot().black, 0) << "seed " << seed;
      }
      if (p.snapshot().black > 0) seen_black = true;
    }
  }
}

}  // namespace
}  // namespace ssmis
