#include <gtest/gtest.h>

#include "core/init.hpp"
#include "core/process.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"
#include "models/stone_age.hpp"

namespace ssmis {
namespace {

using TwoState = EngineProcess<TwoStateRule>;
using ThreeState = EngineProcess<ThreeStateRule>;
using ThreeColor = EngineProcess<ThreeColorRule>;

std::vector<std::uint8_t> encode2(const std::vector<Color2>& colors) {
  std::vector<std::uint8_t> out(colors.size());
  for (std::size_t i = 0; i < colors.size(); ++i)
    out[i] = TwoStateBeepAutomaton::encode(colors[i]);
  return out;
}

std::vector<std::uint8_t> encode3(const std::vector<Color3>& colors) {
  std::vector<std::uint8_t> out(colors.size());
  for (std::size_t i = 0; i < colors.size(); ++i)
    out[i] = ThreeStateStoneAgeAutomaton::encode(colors[i]);
  return out;
}

TEST(BeepingNetwork, ValidatesInit) {
  const Graph g = gen::path(3);
  const TwoStateBeepAutomaton automaton;
  EXPECT_THROW(BeepingNetwork(g, automaton, {0, 1}, CoinOracle(1)),
               std::invalid_argument);
  EXPECT_THROW(BeepingNetwork(g, automaton, {0, 1, 7}, CoinOracle(1)),
               std::invalid_argument);
}

TEST(BeepingNetwork, BeepAccounting) {
  const Graph g = gen::path(3);
  const TwoStateBeepAutomaton automaton;
  BeepingNetwork net(g, automaton, {1, 0, 1}, CoinOracle(1));
  net.step();
  EXPECT_EQ(net.beeps_last_round(), 2);  // the two black nodes beeped
  EXPECT_EQ(net.total_beeps(), 2);
}

TEST(BeepingEquivalence, TwoStateBitIdenticalOnSuite) {
  // The headline model theorem: the beeping-model execution IS the 2-state
  // process execution, coin for coin, on every graph and seed tested.
  const std::vector<Graph> graphs = {
      gen::complete(16), gen::path(40),        gen::star(15),
      gen::cycle(21),    gen::gnp(60, 0.1, 3), gen::random_tree(50, 4),
      Graph::from_edges(4, {}),
  };
  const TwoStateBeepAutomaton automaton;
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const CoinOracle coins(seed);
      const auto init = make_init2(g, InitPattern::kUniformRandom, coins);
      TwoState direct(g, init, TwoStateRule(coins));
      BeepingNetwork net(g, automaton, encode2(init), coins);
      for (int round = 0; round < 200; ++round) {
        direct.step();
        net.step();
        ASSERT_EQ(net.states(), encode2(direct.engine().colors()))
            << g.summary() << " seed " << seed << " round " << round;
      }
    }
  }
}

TEST(BeepingEquivalence, ClaimedMisMatchesBlackSet) {
  const Graph g = gen::gnp(50, 0.1, 5);
  const CoinOracle coins(9);
  const auto init = make_init2(g, InitPattern::kAllBlack, coins);
  TwoState direct(g, init, TwoStateRule(coins));
  const TwoStateBeepAutomaton automaton;
  BeepingNetwork net(g, automaton, encode2(init), coins);
  for (int i = 0; i < 500 && !direct.stabilized(); ++i) {
    direct.step();
    net.step();
  }
  ASSERT_TRUE(direct.stabilized());
  EXPECT_EQ(net.claimed_mis(), direct.output_set());
  EXPECT_TRUE(is_mis(g, net.claimed_mis()));
}

TEST(StoneAgeNetwork, ValidatesInitAndChannels) {
  const Graph g = gen::path(3);
  const ThreeStateStoneAgeAutomaton automaton;
  EXPECT_THROW(StoneAgeNetwork(g, automaton, {0, 1}, CoinOracle(1)),
               std::invalid_argument);
  EXPECT_THROW(StoneAgeNetwork(g, automaton, {0, 1, 9}, CoinOracle(1)),
               std::invalid_argument);
}

TEST(StoneAgeNetwork, SilentNodesDoNotTransmit) {
  const Graph g = gen::path(2);
  const ThreeStateStoneAgeAutomaton automaton;
  StoneAgeNetwork net(g, automaton, {0, 0}, CoinOracle(1));  // both white
  net.step();
  EXPECT_EQ(net.total_transmissions(), 0);
}

TEST(StoneAgeEquivalence, ThreeStateBitIdenticalOnSuite) {
  const std::vector<Graph> graphs = {
      gen::complete(16), gen::path(40),        gen::star(15),
      gen::gnp(60, 0.1, 3), gen::random_tree(50, 4),
  };
  const ThreeStateStoneAgeAutomaton automaton;
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const CoinOracle coins(seed);
      const auto init = make_init3(g, InitPattern::kUniformRandom, coins);
      ThreeState direct(g, init, ThreeStateRule(coins));
      StoneAgeNetwork net(g, automaton, encode3(init), coins);
      for (int round = 0; round < 200; ++round) {
        direct.step();
        net.step();
        ASSERT_EQ(net.states(), encode3(direct.engine().colors()))
            << g.summary() << " seed " << seed << " round " << round;
      }
    }
  }
}

TEST(StoneAgeEquivalence, ThreeColorFullSystemBitIdentical) {
  // The 18-state automaton must reproduce the 3-color process INCLUDING its
  // randomized logarithmic switch, via 18-channel full-state announcement.
  const std::vector<Graph> graphs = {
      gen::complete(12), gen::star(14), gen::gnp(40, 0.2, 7), gen::path(25),
  };
  const ThreeColorStoneAgeAutomaton automaton;
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const CoinOracle coins(seed);
      const auto init = make_init_g(g, InitPattern::kUniformRandom, coins);
      ThreeColor direct(g, init, ThreeColorRule::with_randomized_switch(g, coins));
      const auto* sw = dynamic_cast<const RandomizedLogSwitch*>(
          &direct.engine().rule().switch_process());
      ASSERT_NE(sw, nullptr);
      std::vector<std::uint8_t> net_init(init.size());
      for (Vertex u = 0; u < g.num_vertices(); ++u) {
        net_init[static_cast<std::size_t>(u)] = ThreeColorStoneAgeAutomaton::encode(
            init[static_cast<std::size_t>(u)], sw->clock().level(u));
      }
      StoneAgeNetwork net(g, automaton, net_init, coins);
      for (int round = 0; round < 150; ++round) {
        direct.step();
        net.step();
        // Re-fetch through the syncing accessor each round: the lazy-switch
        // fast-forward may leave the physical clock behind the logical
        // round until a read forces the (bit-identical) replay.
        sw = dynamic_cast<const RandomizedLogSwitch*>(
            &direct.engine().rule().switch_process());
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          ASSERT_EQ(ThreeColorStoneAgeAutomaton::decode_color(net.state(u)),
                    direct.engine().color(u))
              << g.summary() << " seed " << seed << " round " << round << " u " << u;
          ASSERT_EQ(ThreeColorStoneAgeAutomaton::decode_level(net.state(u)),
                    sw->clock().level(u))
              << g.summary() << " seed " << seed << " round " << round << " u " << u;
        }
      }
    }
  }
}

TEST(Automata, TwoStateTransitionTable) {
  const TwoStateBeepAutomaton a;
  const std::uint64_t black_word = ~0ULL;  // top bit set -> black
  const std::uint64_t white_word = 0;
  using A = TwoStateBeepAutomaton;
  // black + heard (collision) -> active -> coin decides.
  EXPECT_EQ(a.next(A::kBlack, true, black_word), A::kBlack);
  EXPECT_EQ(a.next(A::kBlack, true, white_word), A::kWhite);
  // black + silence -> stable black, keeps state regardless of coin.
  EXPECT_EQ(a.next(A::kBlack, false, white_word), A::kBlack);
  // white + heard -> covered, stays white.
  EXPECT_EQ(a.next(A::kWhite, true, black_word), A::kWhite);
  // white + silence -> active.
  EXPECT_EQ(a.next(A::kWhite, false, black_word), A::kBlack);
  EXPECT_EQ(a.next(A::kWhite, false, white_word), A::kWhite);
}

TEST(Automata, ThreeStateEmitsAtMostOneChannel) {
  const ThreeStateStoneAgeAutomaton a;
  EXPECT_EQ(a.emit(ThreeStateStoneAgeAutomaton::kWhite), -1);
  EXPECT_EQ(a.emit(ThreeStateStoneAgeAutomaton::kBlack0), 0);
  EXPECT_EQ(a.emit(ThreeStateStoneAgeAutomaton::kBlack1), 1);
}

TEST(Automata, ThreeColorEncodingRoundTrips) {
  for (int level = 0; level <= 5; ++level) {
    for (ColorG c : {ColorG::kWhite, ColorG::kBlack, ColorG::kGray}) {
      const auto s = ThreeColorStoneAgeAutomaton::encode(c, level);
      EXPECT_LT(s, 18);
      EXPECT_EQ(ThreeColorStoneAgeAutomaton::decode_color(s), c);
      EXPECT_EQ(ThreeColorStoneAgeAutomaton::decode_level(s), level);
    }
  }
}

TEST(Automata, StateCountsMatchPaper) {
  EXPECT_EQ(TwoStateBeepAutomaton().num_states(), 2);
  EXPECT_EQ(ThreeStateStoneAgeAutomaton().num_states(), 3);
  EXPECT_EQ(ThreeColorStoneAgeAutomaton().num_states(), 18);
}

}  // namespace
}  // namespace ssmis
