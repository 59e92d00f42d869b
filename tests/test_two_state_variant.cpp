#include <gtest/gtest.h>

#include "core/init.hpp"
#include "core/process.hpp"
#include "core/two_state.hpp"
#include "core/two_state_variant.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"

namespace ssmis {
namespace {

using TwoState = EngineProcess<TwoStateRule>;
using Variant = EngineProcess<TwoStateVariantRule>;

TEST(TwoStateVariant, Validation) {
  const Graph g = gen::path(3);
  const std::vector<Color2> init(3, Color2::kWhite);
  EXPECT_THROW(Variant(g, {Color2::kWhite},
                       TwoStateVariantRule(CoinOracle(1), 0.5, false)),
               std::invalid_argument);
  EXPECT_THROW(TwoStateVariantRule(CoinOracle(1), 0.0, false), std::invalid_argument);
  EXPECT_THROW(TwoStateVariantRule(CoinOracle(1), 1.0, false), std::invalid_argument);
  EXPECT_NO_THROW(Variant(g, init, TwoStateVariantRule(CoinOracle(1), 0.5, true)));
}

TEST(TwoStateVariant, ActivePredicateMatchesBaseProcess) {
  const Graph g = gen::path(4);
  const std::vector<Color2> init = {Color2::kBlack, Color2::kBlack, Color2::kWhite,
                                    Color2::kWhite};
  const Variant v(g, init, TwoStateVariantRule(CoinOracle(1), 0.5, false));
  const TwoState base(g, init, TwoStateRule(CoinOracle(1)));
  for (Vertex u = 0; u < 4; ++u) EXPECT_EQ(v.engine().active(u), base.engine().active(u));
}

TEST(TwoStateVariant, StabilizesToMisForAllBiases) {
  const Graph g = gen::gnp(50, 0.1, 7);
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const CoinOracle coins(11);
    Variant p(g, make_init2(g, InitPattern::kUniformRandom, coins),
              TwoStateVariantRule(coins, q, false));
    const RunResult r = p.run(200000, TraceMode::kNone);
    ASSERT_TRUE(r.stabilized) << "q=" << q;
    EXPECT_TRUE(is_mis(g, p.output_set())) << "q=" << q;
  }
}

TEST(TwoStateVariant, EagerWhiteStabilizesToMis) {
  const Graph g = gen::gnp(50, 0.1, 13);
  const CoinOracle coins(17);
  Variant p(g, make_init2(g, InitPattern::kAllWhite, coins),
            TwoStateVariantRule(coins, 0.5, true));
  const RunResult r = p.run(200000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.output_set()));
}

TEST(TwoStateVariant, EagerWhiteIsolatedVertexJoinsInOneRound) {
  const Graph g = Graph::from_edges(1, {});
  Variant p(g, {Color2::kWhite}, TwoStateVariantRule(CoinOracle(3), 0.5, true));
  p.step();
  EXPECT_TRUE(is_black(p.engine().color(0)));
  EXPECT_TRUE(p.stabilized());
}

TEST(TwoStateVariant, EagerWhiteK2LivelocksSlower) {
  // With eager white both vertices of K_2 jump white->black together, then
  // resolve via the black coin: the process still stabilizes (unlike the
  // fully deterministic rule).
  const Graph g = gen::complete(2);
  Variant p(g, {Color2::kWhite, Color2::kWhite},
            TwoStateVariantRule(CoinOracle(5), 0.5, true));
  const RunResult r = p.run(100000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_EQ(p.snapshot().black, 1);
}

TEST(TwoStateVariant, StableConfigurationUntouched) {
  const Graph g = gen::path(4);
  const std::vector<Color2> mis = {Color2::kBlack, Color2::kWhite, Color2::kBlack,
                                   Color2::kWhite};
  Variant p(g, mis, TwoStateVariantRule(CoinOracle(7), 0.3, true));
  EXPECT_TRUE(p.stabilized());
  for (int i = 0; i < 30; ++i) p.step();
  EXPECT_EQ(p.engine().colors(), mis);
}

TEST(TwoStateVariant, BiasSkewsBlackMass) {
  // On an edgeless graph every vertex is active white initially; after one
  // round the black fraction approximates q.
  const Graph g = Graph::from_edges(2000, {});
  for (double q : {0.2, 0.8}) {
    const CoinOracle coins(23);
    Variant p(g, std::vector<Color2>(2000, Color2::kWhite),
              TwoStateVariantRule(coins, q, false));
    p.step();
    EXPECT_NEAR(static_cast<double>(p.snapshot().black) / 2000.0, q, 0.05) << "q=" << q;
  }
}

TEST(TwoStateVariant, CountsConsistentWithSets) {
  const Graph g = gen::gnp(40, 0.15, 31);
  const CoinOracle coins(37);
  Variant p(g, make_init2(g, InitPattern::kAlternating, coins),
            TwoStateVariantRule(coins, 0.6, false));
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(p.snapshot().black), p.output_set().size());
    Vertex active = 0;
    for (Vertex u = 0; u < 40; ++u)
      if (p.engine().active(u)) ++active;
    EXPECT_EQ(p.engine().num_active(), active);
    p.step();
  }
}

TEST(TwoStateVariant, HalfBiasBehavesLikeDefinitionFour) {
  // q = 1/2 without eager white is distributionally Definition 4 (different
  // coin stream than the 2-state rule, so traces differ, but it must stabilize
  // with comparable speed on the clique).
  const Graph g = gen::complete(64);
  double variant_total = 0;
  double base_total = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const CoinOracle coins(100 + static_cast<std::uint64_t>(trial));
    Variant v(g, make_init2(g, InitPattern::kUniformRandom, coins),
              TwoStateVariantRule(coins, 0.5, false));
    TwoState b(g, make_init2(g, InitPattern::kUniformRandom, coins), TwoStateRule(coins));
    variant_total += static_cast<double>(v.run(100000, TraceMode::kNone).rounds);
    base_total += static_cast<double>(b.run(100000, TraceMode::kNone).rounds);
  }
  EXPECT_LT(variant_total / trials, 4.0 * (base_total / trials) + 10.0);
  EXPECT_LT(base_total / trials, 4.0 * (variant_total / trials) + 10.0);
}

}  // namespace
}  // namespace ssmis
