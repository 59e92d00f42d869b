#include <gtest/gtest.h>

#include "core/init.hpp"
#include "core/process.hpp"
#include "core/three_color.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "harness/registry.hpp"
#include "reference_processes.hpp"

namespace ssmis {
namespace {

using ThreeColor = EngineProcess<ThreeColorRule>;

std::vector<ColorG> colors_of(const char* pattern, Vertex n) {
  // 'b' = black, 'w' = white, 'g' = gray.
  std::vector<ColorG> out(static_cast<std::size_t>(n));
  for (Vertex u = 0; u < n; ++u) {
    switch (pattern[u]) {
      case 'b': out[static_cast<std::size_t>(u)] = ColorG::kBlack; break;
      case 'g': out[static_cast<std::size_t>(u)] = ColorG::kGray; break;
      default: out[static_cast<std::size_t>(u)] = ColorG::kWhite; break;
    }
  }
  return out;
}

TEST(ThreeColor, ConstructorValidation) {
  const Graph g = gen::path(3);
  EXPECT_THROW(ThreeColor(g, colors_of("ww", 2),
                          ThreeColorRule(CoinOracle(1),
                                         std::make_unique<AlwaysOnSwitch>())),
               std::invalid_argument);
  EXPECT_THROW(ThreeColorRule(CoinOracle(1), nullptr), std::invalid_argument);
  auto stale = std::make_unique<AlwaysOnSwitch>();
  stale->step();
  EXPECT_THROW(ThreeColorRule(CoinOracle(1), std::move(stale)),
               std::invalid_argument);
}

TEST(ThreeColor, EighteenStatesWithRandomizedSwitch) {
  const Graph g = gen::path(4);
  const CoinOracle coins(1);
  ThreeColor p(g, colors_of("wwww", 4), ThreeColorRule::with_randomized_switch(g, coins));
  EXPECT_EQ(p.engine().rule().num_states(), 18);  // Theorem 3's state count
}

TEST(ThreeColor, GrayTurnsWhiteWhenSwitchOn) {
  const Graph g = gen::path(2);
  ThreeColor p(g, colors_of("gb", 2),
               ThreeColorRule(CoinOracle(3), std::make_unique<AlwaysOnSwitch>()));
  p.step();
  EXPECT_EQ(p.engine().color(0), ColorG::kWhite);
}

TEST(ThreeColor, GrayStaysGrayWhenSwitchOff) {
  const Graph g = gen::path(2);
  ThreeColor p(g, colors_of("gb", 2),
               ThreeColorRule(CoinOracle(3), std::make_unique<NeverOnSwitch>()));
  for (int i = 0; i < 20; ++i) {
    p.step();
    ASSERT_EQ(p.engine().color(0), ColorG::kGray);
  }
}

TEST(ThreeColor, BlackConflictResolvesToBlackOrGray) {
  // Two adjacent blacks: each resamples {black, gray}, never white directly.
  const Graph g = gen::path(2);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    ThreeColor p(g, colors_of("bb", 2),
                 ThreeColorRule(CoinOracle(seed), std::make_unique<NeverOnSwitch>()));
    p.step();
    for (Vertex u = 0; u < 2; ++u)
      EXPECT_NE(p.engine().color(u), ColorG::kWhite) << "seed " << seed;
  }
}

TEST(ThreeColor, GrayIsTreatedAsNonBlackByNeighbors) {
  // 0 gray, 1 white: vertex 1 has no *black* neighbor, so it is active.
  const Graph g = gen::path(2);
  const ThreeColor p(g, colors_of("gw", 2),
                     ThreeColorRule(CoinOracle(1), std::make_unique<NeverOnSwitch>()));
  EXPECT_TRUE(p.engine().active(1));
  EXPECT_FALSE(p.engine().active(0));  // gray never active
}

TEST(ThreeColor, StabilizationRequiresGrayCoverage) {
  // Black set {1} on path 0-1-2 covers gray vertex 0: stabilized. But a
  // gray vertex with no black neighbor must block stabilization.
  const Graph g = gen::path(3);
  const ThreeColor covered(
      g, colors_of("gbw", 3),
      ThreeColorRule(CoinOracle(1), std::make_unique<NeverOnSwitch>()));
  EXPECT_TRUE(covered.stabilized());
  const Graph g2 = gen::path(4);
  const ThreeColor uncovered(
      g2, colors_of("bwwg", 4),
      ThreeColorRule(CoinOracle(1), std::make_unique<NeverOnSwitch>()));
  EXPECT_FALSE(uncovered.stabilized());
}

TEST(ThreeColor, MatchesReferenceWithPeriodicSwitch) {
  // Differential test against the Definition 28 transcription, driven by a
  // deterministic switch so the color dynamics are isolated.
  const Graph g = gen::gnp(40, 0.15, 71);
  const CoinOracle coins(41);
  std::vector<ColorG> ref = make_init_g(g, InitPattern::kUniformRandom, coins);
  ThreeColor p(g, ref, ThreeColorRule(coins, std::make_unique<PeriodicSwitch>(5, 2)));
  PeriodicSwitch shadow(5, 2);
  for (std::int64_t t = 1; t <= 200; ++t) {
    std::vector<char> sigma(static_cast<std::size_t>(g.num_vertices()));
    for (Vertex u = 0; u < g.num_vertices(); ++u) sigma[static_cast<std::size_t>(u)] = shadow.on(u);
    p.step();
    shadow.step();
    ref = testing::reference_step_g(g, ref, sigma, coins, t);
    ASSERT_EQ(p.engine().colors(), ref) << "diverged at round " << t;
  }
}

TEST(ThreeColor, MatchesReferenceWithRandomizedSwitch) {
  // Full-system differential test: colors AND clock levels must both track
  // the naive transcription.
  const Graph g = gen::gnp(30, 0.2, 73);
  const CoinOracle coins(43);
  std::vector<ColorG> ref = make_init_g(g, InitPattern::kUniformRandom, coins);
  ThreeColor p(g, ref, ThreeColorRule::with_randomized_switch(g, coins));
  const auto* sw =
      dynamic_cast<const RandomizedLogSwitch*>(&p.engine().rule().switch_process());
  ASSERT_NE(sw, nullptr);
  std::vector<int> ref_levels = sw->clock().levels();
  for (std::int64_t t = 1; t <= 150; ++t) {
    std::vector<char> sigma(static_cast<std::size_t>(g.num_vertices()));
    for (Vertex u = 0; u < g.num_vertices(); ++u)
      sigma[static_cast<std::size_t>(u)] = ref_levels[static_cast<std::size_t>(u)] <= 2;
    p.step();
    ref = testing::reference_step_g(g, ref, sigma, coins, t);
    ref_levels = testing::reference_clock_step(g, ref_levels, coins, t, 3);
    ASSERT_EQ(p.engine().colors(), ref) << "colors diverged at round " << t;
    ASSERT_EQ(sw->clock().levels(), ref_levels) << "levels diverged at round " << t;
  }
}

TEST(ThreeColor, StabilizesOnCliqueFromAllPatterns) {
  const Graph g = gen::complete(32);
  for (InitPattern pattern : all_init_patterns()) {
    const CoinOracle coins(83);
    ThreeColor p(g, make_init_g(g, pattern, coins),
                 ThreeColorRule::with_randomized_switch(g, coins));
    const RunResult r = p.run(100000, TraceMode::kNone);
    ASSERT_TRUE(r.stabilized) << to_string(pattern);
    EXPECT_TRUE(is_mis(g, p.output_set())) << to_string(pattern);
  }
}

TEST(ThreeColor, StabilizesOnGnpDense) {
  const Graph g = gen::gnp(100, 0.4, 89);
  const CoinOracle coins(97);
  ThreeColor p(g, make_init_g(g, InitPattern::kUniformRandom, coins),
               ThreeColorRule::with_randomized_switch(g, coins));
  const RunResult r = p.run(200000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.output_set()));
}

TEST(ThreeColor, BlackSetFrozenAfterStabilization) {
  const Graph g = gen::gnp(40, 0.2, 101);
  const CoinOracle coins(103);
  ThreeColor p(g, make_init_g(g, InitPattern::kUniformRandom, coins),
               ThreeColorRule::with_randomized_switch(g, coins));
  const RunResult r = p.run(100000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  const auto mis = p.output_set();
  for (int i = 0; i < 200; ++i) {
    p.step();
    ASSERT_EQ(p.output_set(), mis);
    ASSERT_TRUE(p.stabilized());
  }
}

TEST(ThreeColor, Lemma29GrayImpliesRecentlyActiveBlack) {
  // Lemma 29's mechanism: a vertex becomes gray only from active black. We
  // verify the one-step version: every newly gray vertex was black with a
  // black neighbor in the previous round.
  const Graph g = gen::gnp(40, 0.2, 107);
  const CoinOracle coins(109);
  ThreeColor p(g, make_init_g(g, InitPattern::kUniformRandom, coins),
               ThreeColorRule::with_randomized_switch(g, coins));
  for (int i = 0; i < 150; ++i) {
    std::vector<ColorG> before = p.engine().colors();
    std::vector<bool> was_active_black(40);
    for (Vertex u = 0; u < 40; ++u)
      was_active_black[static_cast<std::size_t>(u)] =
          before[static_cast<std::size_t>(u)] == ColorG::kBlack && p.engine().active(u);
    p.step();
    for (Vertex u = 0; u < 40; ++u) {
      const bool newly_gray = p.engine().color(u) == ColorG::kGray &&
                              before[static_cast<std::size_t>(u)] != ColorG::kGray;
      if (newly_gray) {
        ASSERT_TRUE(was_active_black[static_cast<std::size_t>(u)]) << "vertex " << u;
      }
    }
  }
}

TEST(ThreeColor, GrayCountTracked) {
  const Graph g = gen::path(5);
  ThreeColor p(g, colors_of("ggbww", 5),
               ThreeColorRule(CoinOracle(1), std::make_unique<NeverOnSwitch>()));
  EXPECT_EQ(p.snapshot().gray, 2);
  p.engine().force_color(0, ColorG::kWhite);
  EXPECT_EQ(p.snapshot().gray, 1);
}

TEST(ThreeColor, WithNeverOnSwitchGrayAbsorbs) {
  // With the switch permanently off, grays are permanent; the process still
  // stabilizes as long as every gray ends up covered. On a clique that is
  // guaranteed once one vertex goes stable black.
  const Graph g = gen::complete(16);
  const CoinOracle coins(113);
  ThreeColor p(g, make_init_g(g, InitPattern::kAllBlack, coins),
               ThreeColorRule(coins, std::make_unique<NeverOnSwitch>()));
  const RunResult r = p.run(100000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.output_set()));
}

// The fault contract: Process::inject_fault corrupts the FULL per-vertex
// state, which for 3color includes the switch level — with the default
// randomized switch and the generalized phase-clock switch alike, and also
// while the lazy switch holds deferred rounds (faults land after the run
// stabilized, when quiet rounds defer the clock).
TEST(ThreeColor, InjectFaultCorruptsSwitchLevel) {
  const Graph g = gen::gnp(40, 0.15, 131);
  for (const bool generalized : {false, true}) {
    ProtocolParams params;
    if (generalized) params.set("switch-d", "3");
    const auto p = ProtocolRegistry::instance().make("3color", g, params, 137);
    auto* proc = dynamic_cast<ThreeColor*>(p.get());
    ASSERT_NE(proc, nullptr);
    ASSERT_TRUE(p->run(100000, TraceMode::kNone).stabilized);
    // Step on until the grays drained and the clock is being deferred.
    for (int i = 0; i < 100000 && proc->engine().rule().deferred_switch_rounds() == 0;
         ++i)
      p->step();
    ASSERT_GT(proc->engine().rule().deferred_switch_rounds(), 0);
    auto clock = [&]() -> PhaseClock& {
      return dynamic_cast<RandomizedLogSwitch&>(proc->engine().rule().switch_process())
          .clock();
    };
    const int num_states = clock().num_states();
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      const int before = clock().level(u);
      const int wanted = (before + 1) % num_states;
      const std::uint64_t w = (static_cast<std::uint64_t>(wanted) << 8) | 1;
      ASSERT_TRUE(p->inject_fault(u, w));
      EXPECT_EQ(clock().level(u), wanted)
          << (generalized ? "switch-d=3" : "default") << " vertex " << u;
    }
  }
}

}  // namespace
}  // namespace ssmis
