// The 2-state MIS process (Definition 4 of the paper).
//
// Each vertex holds a binary color. In every synchronous round, every
// *active* vertex — black with a black neighbor, or white with no black
// neighbor — resamples its color uniformly at random; all other vertices
// keep their color. Once the black set is a maximal independent set nothing
// is active and the process has stabilized.
//
// Randomness: the color drawn by vertex u in round t is CoinOracle's
// phi_t(u), exactly the coupling device of Section 2.1, so runs are
// reproducible and bit-identical to the beeping-model simulation.
//
// Implementation: a rule over ProcessEngine (core/engine.hpp), run as
// EngineProcess<TwoStateRule> (core/process.hpp). A round costs
// O(|A_t| + sum of deg(u) over vertices that changed color), and all trace
// aggregates (num_active, num_stable_black, num_unstable, ...) are O(1)
// incrementally maintained reads.
#pragma once

#include <array>
#include <cstdint>
#include "core/color.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

// Definition 4 as an engine policy: transition table + activity predicate.
class TwoStateRule {
 public:
  using Color = Color2;
  static constexpr bool kTracksStability = true;

  explicit TwoStateRule(const CoinOracle& coins) : coins_(coins) {}

  int num_colors() const { return 2; }
  int num_counters() const { return 1; }  // cnt[0] = black neighbors
  Vertex contribution(Color2 c, int) const { return is_black(c) ? 1 : 0; }

  bool active(Color2 c, const Vertex* cnt) const {
    return is_black(c) ? cnt[0] > 0 : cnt[0] == 0;
  }
  // For the 2-state rule, the scheduled, active, and violating sets coincide.
  bool scheduled(Color2 c, const Vertex* cnt) const { return active(c, cnt); }
  bool violating(Color2 c, const Vertex* cnt) const { return active(c, cnt); }
  bool stable_black(Color2 c, const Vertex* cnt) const {
    return is_black(c) && cnt[0] == 0;
  }
  static constexpr std::array kOutputColors{Color2::kBlack};

  // Called only for active vertices: resample with phi_t(u).
  Color2 transition(Vertex u, Color2, const Vertex*, std::int64_t t) const {
    return coins_.fair_coin(t, u) ? Color2::kBlack : Color2::kWhite;
  }

 private:
  CoinOracle coins_;
};

}  // namespace ssmis
