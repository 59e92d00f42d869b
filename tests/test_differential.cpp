// Differential sweep: the optimized incremental-counter implementations of
// all three processes are checked round-by-round against the naive
// transcriptions of Definitions 4, 5, 26 and 28 — across the full graph
// suite (including degenerate corner graphs) and multiple seeds. This is
// the library's strongest correctness guarantee: any divergence in counter
// maintenance, activity predicates, coin indexing, or switch coupling
// fails here with the exact round number.
#include <gtest/gtest.h>

#include <cctype>
#include <tuple>

#include "core/init.hpp"
#include "core/process.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "harness/suites.hpp"
#include "reference_processes.hpp"

namespace ssmis {
namespace {

using TwoState = EngineProcess<TwoStateRule>;
using ThreeState = EngineProcess<ThreeStateRule>;
using ThreeColor = EngineProcess<ThreeColorRule>;

const std::vector<NamedGraph>& suite() {
  static const std::vector<NamedGraph>* s = [] {
    auto* v = new std::vector<NamedGraph>(small_suite(/*seed=*/777));
    const auto corners = corner_suite();
    v->insert(v->end(), corners.begin(), corners.end());
    return v;
  }();
  return *s;
}

using Param = std::tuple<int, int>;  // (suite index, seed)

std::vector<Param> all_params() {
  std::vector<Param> params;
  for (int g = 0; g < static_cast<int>(suite().size()); ++g)
    for (int seed = 1; seed <= 2; ++seed) params.emplace_back(g, seed);
  return params;
}

struct ParamNames {
  template <typename T>
  std::string operator()(const ::testing::TestParamInfo<T>& info) const {
    const auto [graph_index, seed] = info.param;
    std::string name = suite()[static_cast<std::size_t>(graph_index)].name +
                       "_s" + std::to_string(seed);
    for (char& c : name)
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    return name;
  }
};

class Differential : public ::testing::TestWithParam<Param> {
 protected:
  const Graph& graph() const {
    return suite()[static_cast<std::size_t>(std::get<0>(GetParam()))].graph;
  }
  std::uint64_t seed() const {
    return static_cast<std::uint64_t>(std::get<1>(GetParam())) * 7919 + 13;
  }
  static constexpr std::int64_t kRounds = 120;
};

TEST_P(Differential, TwoStateMatchesDefinitionFour) {
  const Graph& g = graph();
  const CoinOracle coins(seed());
  std::vector<Color2> ref = make_init2(g, InitPattern::kUniformRandom, coins);
  TwoState p(g, ref, TwoStateRule(coins));
  for (std::int64_t t = 1; t <= kRounds; ++t) {
    p.step();
    ref = testing::reference_step2(g, ref, coins, t);
    ASSERT_EQ(p.engine().colors(), ref) << "round " << t;
    // Cross-check the maintained aggregates against the ground truth.
    Vertex black = 0;
    for (Color2 c : ref) black += c == Color2::kBlack;
    ASSERT_EQ(p.snapshot().black, black) << "round " << t;
  }
}

TEST_P(Differential, ThreeStateMatchesDefinitionFive) {
  const Graph& g = graph();
  const CoinOracle coins(seed());
  std::vector<Color3> ref = make_init3(g, InitPattern::kUniformRandom, coins);
  ThreeState p(g, ref, ThreeStateRule(coins));
  for (std::int64_t t = 1; t <= kRounds; ++t) {
    p.step();
    ref = testing::reference_step3(g, ref, coins, t);
    ASSERT_EQ(p.engine().colors(), ref) << "round " << t;
  }
}

TEST_P(Differential, ThreeColorMatchesDefinitions26And28) {
  const Graph& g = graph();
  const CoinOracle coins(seed());
  std::vector<ColorG> ref = make_init_g(g, InitPattern::kUniformRandom, coins);
  ThreeColor p(g, ref, ThreeColorRule::with_randomized_switch(g, coins));
  const auto* sw =
      dynamic_cast<const RandomizedLogSwitch*>(&p.engine().rule().switch_process());
  ASSERT_NE(sw, nullptr);
  std::vector<int> ref_levels = sw->clock().levels();
  for (std::int64_t t = 1; t <= kRounds; ++t) {
    std::vector<char> sigma(ref_levels.size());
    for (std::size_t i = 0; i < ref_levels.size(); ++i) sigma[i] = ref_levels[i] <= 2;
    p.step();
    ref = testing::reference_step_g(g, ref, sigma, coins, t);
    ref_levels = testing::reference_clock_step(g, ref_levels, coins, t, 3);
    ASSERT_EQ(p.engine().colors(), ref) << "colors diverged at round " << t;
    // Re-fetch through the syncing accessor: under the lazy-switch
    // fast-forward the physical clock may lag the logical round until a
    // read forces replay — which must land exactly on the reference.
    sw = dynamic_cast<const RandomizedLogSwitch*>(&p.engine().rule().switch_process());
    ASSERT_EQ(sw->clock().levels(), ref_levels) << "levels diverged at round " << t;
  }
}

TEST_P(Differential, TwoStateAdversarialInitsMatch) {
  // The uniform-random init exercises typical paths; all-black maximizes
  // simultaneous flips, the regime where diff-application bugs would hide.
  const Graph& g = graph();
  const CoinOracle coins(seed() + 1);
  std::vector<Color2> ref = make_init2(g, InitPattern::kAllBlack, coins);
  TwoState p(g, ref, TwoStateRule(coins));
  for (std::int64_t t = 1; t <= kRounds; ++t) {
    p.step();
    ref = testing::reference_step2(g, ref, coins, t);
    ASSERT_EQ(p.engine().colors(), ref) << "round " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, Differential, ::testing::ValuesIn(all_params()),
                         ParamNames());

}  // namespace
}  // namespace ssmis
