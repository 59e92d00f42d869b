// Randomized phase clock, the core mechanism of the logarithmic switch
// (Definition 26), generalized to a diameter parameter D as in Emek-Keren's
// RandPhase [PODC 2021].
//
// Each vertex holds a level in {0, ..., D+2} (D+3 states; the paper's switch
// is the D = 3 instance with 6 states). Per round, with top = D+2:
//
//   if level = top: draw a bit b with P[b = 0] = zeta
//   if (level = top and b = 1) or level = 0:  level' = top
//   else:                                     level' = max over N+(u) of level, minus 1
//
// The paper's insight (Section 5.1) is to run the D = 3 clock on graphs of
// *arbitrary unknown* diameter: when diam(G) <= 2 the clock synchronizes and
// yields both S2 and S3; on larger-diameter graphs only the upper bound S1
// survives — which is exactly what the 3-color analysis needs.
//
// Stepping is frontier-sparse. A non-top vertex's next level is a pure
// function of the levels in N+(u), so it can move in round t+1 only if it is
// at the top (it draws the coin) or some vertex of N+(u) moved in round t. A
// step therefore visits top ∪ N+(changed) and leaves every other level as it
// is; level-0 vertices are always in the frontier because they just moved
// there. Construction and force_level mark their vertices changed, so the
// trajectory is exactly the dense Definition 26 step's.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class PhaseClock {
 public:
  // zeta = zeta_num / 2^zeta_log2_den (the paper uses 1/2^7 = 4/a, a = 512).
  // Throws std::invalid_argument for d outside [1, 253] (levels are bytes),
  // malformed zeta, or init levels outside [0, d+2].
  PhaseClock(const Graph& g, int d, std::vector<int> init_levels,
             const CoinOracle& coins, std::uint64_t zeta_num = 1,
             unsigned zeta_log2_den = 7);

  // Uniformly random initial levels drawn from the oracle (self-stabilizing
  // processes must cope with arbitrary levels).
  static PhaseClock with_random_levels(const Graph& g, int d, const CoinOracle& coins,
                                       std::uint64_t zeta_num = 1,
                                       unsigned zeta_log2_den = 7);

  void step();
  // Replays `rounds` consecutive step()s (no-op for rounds <= 0). The clock
  // trajectory is a pure function of (levels, round, coins), so a deferred
  // batch replay is bit-identical to having stepped every round — the
  // lazy-switch hook of the 3-color fast-forward path.
  void advance(std::int64_t rounds);
  std::int64_t round() const { return round_; }

  int d() const { return d_; }
  int top_level() const { return d_ + 2; }
  int num_states() const { return d_ + 3; }
  double zeta() const;

  int level(Vertex u) const { return levels_[static_cast<std::size_t>(u)]; }
  std::vector<int> levels() const;

  // Test/fault hook. The vertex counts as changed, so the next step
  // re-evaluates its closed neighborhood (and u itself, at any level).
  void force_level(Vertex u, int level);

 private:
  // Evaluates u against the current (not yet committed) levels; stages a
  // change and, when the next level is the top, enrolls u in next_top_.
  void visit(Vertex u, std::int64_t t);

  const Graph* graph_;
  CoinOracle coins_;
  int d_;
  std::uint64_t zeta_num_;
  unsigned zeta_log2_den_;
  std::vector<std::uint8_t> levels_;
  // Frontier state. top_ holds the vertices the last step left at the top;
  // dirty_ holds the vertices that changed in the last step or were forced
  // since (possibly repeated). A forced vertex needs no top_ entry: dirty_
  // vertices are visited themselves. The first step after construction
  // visits every vertex (all_dirty_).
  std::vector<Vertex> top_;
  std::vector<Vertex> dirty_;
  std::vector<Vertex> next_top_;
  std::vector<Vertex> changed_;
  std::vector<std::uint8_t> changed_level_;
  // Per-vertex visit epochs: a vertex is visited at most once per step.
  std::vector<std::uint8_t> mark_;
  std::uint8_t epoch_ = 0;
  bool all_dirty_ = true;
  std::int64_t round_ = 0;
};

}  // namespace ssmis
