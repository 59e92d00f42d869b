#include <gtest/gtest.h>

#include "core/init.hpp"
#include "core/process.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "reference_processes.hpp"

namespace ssmis {
namespace {

using TwoState = EngineProcess<TwoStateRule>;

std::vector<Color2> colors_of(const char* pattern, Vertex n) {
  // 'b'/'w' string shorthand for explicit initial states.
  std::vector<Color2> out(static_cast<std::size_t>(n));
  for (Vertex u = 0; u < n; ++u)
    out[static_cast<std::size_t>(u)] = pattern[u] == 'b' ? Color2::kBlack : Color2::kWhite;
  return out;
}

TEST(TwoState, InitSizeMismatchThrows) {
  const Graph g = gen::path(3);
  EXPECT_THROW(TwoState(g, colors_of("bw", 2), TwoStateRule(CoinOracle(1))),
               std::invalid_argument);
}

TEST(TwoState, ActivePredicateDefinition4) {
  const Graph g = gen::path(4);  // 0-1-2-3
  const TwoState p(g, colors_of("bbww", 4), TwoStateRule(CoinOracle(1)));
  EXPECT_TRUE(p.engine().active(0));   // black with black neighbor
  EXPECT_TRUE(p.engine().active(1));   // black with black neighbor
  EXPECT_FALSE(p.engine().active(2));  // white with black neighbor 1
  EXPECT_TRUE(p.engine().active(3));   // white with no black neighbor
}

TEST(TwoState, BlackNeighborCountsMaintained) {
  const Graph g = gen::star(5);
  TwoState p(g, colors_of("wbbbb", 5), TwoStateRule(CoinOracle(2)));
  EXPECT_EQ(p.engine().counter(0, 0), 4);
  EXPECT_EQ(p.engine().counter(1, 0), 0);
  p.engine().force_color(1, Color2::kWhite);
  EXPECT_EQ(p.engine().counter(0, 0), 3);
}

TEST(TwoState, StableConfigurationIsFixedPoint) {
  // 0-1-2-3 with {0,2} black: an MIS. Nothing may ever change.
  const Graph g = gen::path(4);
  TwoState p(g, colors_of("bwbw", 4), TwoStateRule(CoinOracle(3)));
  EXPECT_TRUE(p.stabilized());
  const auto before = p.engine().colors();
  for (int i = 0; i < 50; ++i) p.step();
  EXPECT_EQ(p.engine().colors(), before);
  EXPECT_EQ(p.round(), 50);
}

TEST(TwoState, StabilizedIffBlackSetIsMis) {
  const Graph g = gen::gnp(40, 0.15, 17);
  const CoinOracle coins(11);
  TwoState p(g, make_init2(g, InitPattern::kUniformRandom, coins), TwoStateRule(coins));
  for (int i = 0; i < 2000 && !p.stabilized(); ++i) {
    EXPECT_FALSE(is_mis(g, p.output_set()));
    p.step();
  }
  ASSERT_TRUE(p.stabilized());
  EXPECT_TRUE(is_mis(g, p.output_set()));
}

TEST(TwoState, MatchesReferenceImplementation) {
  // Differential test: the incremental-counter implementation must track the
  // naive Definition 4 transcription exactly, coin for coin.
  const Graph g = gen::gnp(50, 0.12, 23);
  const CoinOracle coins(99);
  std::vector<Color2> ref = make_init2(g, InitPattern::kUniformRandom, coins);
  TwoState p(g, ref, TwoStateRule(coins));
  for (std::int64_t t = 1; t <= 200; ++t) {
    p.step();
    ref = testing::reference_step2(g, ref, coins, t);
    ASSERT_EQ(p.engine().colors(), ref) << "diverged at round " << t;
  }
}

TEST(TwoState, MatchesReferenceOnCliqueAndTree) {
  for (const Graph& g : {gen::complete(20), gen::random_tree(40, 5)}) {
    const CoinOracle coins(7);
    std::vector<Color2> ref = make_init2(g, InitPattern::kAllBlack, coins);
    TwoState p(g, ref, TwoStateRule(coins));
    for (std::int64_t t = 1; t <= 100; ++t) {
      p.step();
      ref = testing::reference_step2(g, ref, coins, t);
      ASSERT_EQ(p.engine().colors(), ref);
    }
  }
}

TEST(TwoState, NonActiveVerticesNeverChange) {
  const Graph g = gen::gnp(30, 0.2, 31);
  const CoinOracle coins(13);
  TwoState p(g, make_init2(g, InitPattern::kUniformRandom, coins), TwoStateRule(coins));
  for (int i = 0; i < 100; ++i) {
    const auto before = p.engine().colors();
    std::vector<bool> was_active(30);
    for (Vertex u = 0; u < 30; ++u)
      was_active[static_cast<std::size_t>(u)] = p.engine().active(u);
    p.step();
    for (Vertex u = 0; u < 30; ++u) {
      if (!was_active[static_cast<std::size_t>(u)]) {
        ASSERT_EQ(
            p.engine().color(u), before[static_cast<std::size_t>(u)]) << "vertex " << u;
      }
    }
  }
}

TEST(TwoState, StableBlackPersists) {
  const Graph g = gen::gnp(30, 0.2, 37);
  const CoinOracle coins(17);
  TwoState p(g, make_init2(g, InitPattern::kUniformRandom, coins), TwoStateRule(coins));
  std::vector<char> ever_stable(30, 0);
  for (int i = 0; i < 200; ++i) {
    for (Vertex u = 0; u < 30; ++u) {
      if (ever_stable[static_cast<std::size_t>(u)]) {
        ASSERT_TRUE(p.engine().stable_black(u))
            << "stable black vertex " << u << " regressed";
      }
      if (p.engine().stable_black(u)) ever_stable[static_cast<std::size_t>(u)] = 1;
    }
    p.step();
  }
}

TEST(TwoState, UnstableCountMonotoneNonincreasing) {
  const Graph g = gen::gnp(40, 0.1, 41);
  const CoinOracle coins(19);
  TwoState p(g, make_init2(g, InitPattern::kUniformRandom, coins), TwoStateRule(coins));
  Vertex prev = p.engine().num_unstable();
  for (int i = 0; i < 300; ++i) {
    p.step();
    const Vertex now = p.engine().num_unstable();
    ASSERT_LE(now, prev);
    prev = now;
  }
}

TEST(TwoState, CountsAgreeWithSets) {
  const Graph g = gen::gnp(35, 0.15, 43);
  const CoinOracle coins(23);
  TwoState p(g, make_init2(g, InitPattern::kAlternating, coins), TwoStateRule(coins));
  for (int i = 0; i < 50; ++i) {
    const auto& e = p.engine();
    EXPECT_EQ(static_cast<std::size_t>(p.snapshot().black), p.output_set().size());
    EXPECT_EQ(static_cast<std::size_t>(e.num_active()),
              e.select([&](Vertex u) { return e.active(u); }).size());
    EXPECT_EQ(static_cast<std::size_t>(e.num_stable_black()),
              e.select([&](Vertex u) { return e.stable_black(u); }).size());
    EXPECT_EQ(static_cast<std::size_t>(e.num_unstable()),
              e.select([&](Vertex u) { return e.unstable(u); }).size());
    p.step();
  }
}

TEST(TwoState, IsolatedVertexStabilizesBlack) {
  const Graph g = Graph::from_edges(1, {});
  TwoState p(g, {Color2::kWhite}, TwoStateRule(CoinOracle(5)));
  RunResult r = p.run(100, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_EQ(p.engine().color(0), Color2::kBlack);
}

TEST(TwoState, EmptyGraphIsStabilizedImmediately) {
  const Graph g = Graph::from_edges(0, {});
  TwoState p(g, {}, TwoStateRule(CoinOracle(5)));
  EXPECT_TRUE(p.stabilized());
}

TEST(TwoState, K2FromBothBlackStabilizes) {
  const Graph g = gen::complete(2);
  TwoState p(g, colors_of("bb", 2), TwoStateRule(CoinOracle(8)));
  const RunResult r = p.run(10000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.output_set()));
  EXPECT_EQ(p.snapshot().black, 1);
}

TEST(TwoState, AllSixInitPatternsStabilizeOnGnp) {
  const Graph g = gen::gnp(60, 0.1, 53);
  for (InitPattern pattern : all_init_patterns()) {
    const CoinOracle coins(61);
    TwoState p(g, make_init2(g, pattern, coins), TwoStateRule(coins));
    const RunResult r = p.run(50000, TraceMode::kNone);
    ASSERT_TRUE(r.stabilized) << to_string(pattern);
    EXPECT_TRUE(is_mis(g, p.output_set())) << to_string(pattern);
  }
}

TEST(TwoState, DeterministicGivenSeed) {
  const Graph g = gen::gnp(40, 0.1, 3);
  const CoinOracle coins(123);
  TwoState a(g, make_init2(g, InitPattern::kUniformRandom, coins), TwoStateRule(coins));
  TwoState b(g, make_init2(g, InitPattern::kUniformRandom, coins), TwoStateRule(coins));
  for (int i = 0; i < 100; ++i) {
    a.step();
    b.step();
    ASSERT_EQ(a.engine().colors(), b.engine().colors());
  }
}

TEST(TwoState, ForceColorOutOfRangeThrows) {
  const Graph g = gen::path(3);
  TwoState p(g, colors_of("www", 3), TwoStateRule(CoinOracle(1)));
  EXPECT_THROW(p.engine().force_color(5, Color2::kBlack), std::out_of_range);
}

TEST(TwoState, ForceColorUpdatesActivity) {
  const Graph g = gen::path(3);
  TwoState p(g, colors_of("bwb", 3), TwoStateRule(CoinOracle(1)));  // an MIS
  EXPECT_TRUE(p.stabilized());
  p.engine().force_color(1, Color2::kBlack);  // now 0-1 and 1-2 conflict
  EXPECT_FALSE(p.stabilized());
  EXPECT_EQ(p.engine().num_active(), 3);
}

TEST(TwoState, LemmaSixShapeOnStar) {
  // A 1-active vertex (hub active, one active neighbor) becomes stable
  // black within ~log(k+1)+1 rounds with constant probability: Monte Carlo
  // lower bound of Lemma 6 on a 2-vertex instance embedded in a star.
  const Graph g = gen::complete(2);
  int stable_quickly = 0;
  const int trials = 2000;
  for (int trial = 0; trial < trials; ++trial) {
    TwoState p(g, colors_of("bb", 2), TwoStateRule(CoinOracle(1000 + trial)));
    p.step();  // round 1: both active -> both resample
    if (p.engine().stable_black(0)) ++stable_quickly;
  }
  // P[vertex 0 black, vertex 1 white after one round] = 1/4 >= (2e*1)^-1 ≈ 0.18.
  EXPECT_GT(stable_quickly, trials / 5);
}

}  // namespace
}  // namespace ssmis
