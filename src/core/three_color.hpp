// The 3-color MIS process (Definition 28): the paper's extension that is
// provably poly(log n) on G(n,p) for the *entire* range 0 <= p <= 1
// (Theorem 3 / Theorem 32).
//
// Two sub-processes run in lockstep on the same graph:
//   1. a logarithmic switch emitting sigma_t(u) ∈ {on, off};
//   2. a 2-state-like color process over {black, white, gray}:
//        black with a black neighbor  -> uniform random {black, gray}
//        white with no black neighbor -> uniform random {black, white}
//        gray and sigma_{t-1} = on    -> white
//        otherwise                    -> unchanged
//
// Gray vertices behave like non-active white vertices toward their
// neighbors; the switch rate-limits how often a vertex can return to the
// white (and hence black-competing) pool, which is what fixes the dense
// regime the plain 2-state analysis cannot handle.
//
// With the randomized 6-state switch the combined per-vertex state space is
// 3 x 6 = 18 states, matching the paper's Theorem 3.
//
// Implemented as an engine rule (core/engine.hpp) that owns its switch: the
// scheduled set is the active set plus the gray vertices (a gray vertex can
// turn white purely because its switch turns on, with no color change
// anywhere near it, so it stays on the worklist until it leaves gray). The
// switch advances in the rule's end-of-round hook, after the colors that
// read sigma_{t-1} commit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "core/log_switch.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class ThreeColorRule {
 public:
  using Color = ColorG;
  static constexpr bool kTracksStability = true;

  // Takes ownership of the switch, which must be freshly constructed (round
  // 0) and built over the process's graph. Throws std::invalid_argument on a
  // null or already-stepped switch.
  ThreeColorRule(const CoinOracle& coins, std::unique_ptr<SwitchProcess> sw);

  // Paper-default rule: randomized 6-state logarithmic switch with
  // zeta = 2^-7 and random initial levels.
  static ThreeColorRule with_randomized_switch(const Graph& g,
                                               const CoinOracle& coins) {
    return ThreeColorRule(coins, std::make_unique<RandomizedLogSwitch>(g, coins));
  }

  int num_colors() const { return 3; }
  int num_counters() const { return 1; }  // cnt[0] = black neighbors
  Vertex contribution(ColorG c, int) const { return is_black(c) ? 1 : 0; }

  // u takes a random transition next round (gray vertices never do).
  bool active(ColorG c, const Vertex* cnt) const {
    if (c == ColorG::kBlack) return cnt[0] > 0;
    if (c == ColorG::kWhite) return cnt[0] == 0;
    return false;
  }
  // Gray is always scheduled: its transition fires whenever its own switch
  // turns on, independent of any neighborhood color change.
  bool scheduled(ColorG c, const Vertex* cnt) const {
    return c == ColorG::kGray || active(c, cnt);
  }
  // MIS violation: every non-black vertex (white *or* gray) needs a black
  // neighbor, and blacks must have none.
  bool violating(ColorG c, const Vertex* cnt) const {
    return is_black(c) ? cnt[0] > 0 : cnt[0] == 0;
  }
  bool stable_black(ColorG c, const Vertex* cnt) const {
    return is_black(c) && cnt[0] == 0;
  }
  static constexpr std::array kOutputColors{ColorG::kBlack};

  ColorG transition(Vertex u, ColorG c, const Vertex* cnt, std::int64_t t) const {
    if (c == ColorG::kBlack && cnt[0] > 0)
      return coins_.fair_coin(t, u) ? ColorG::kBlack : ColorG::kGray;
    if (c == ColorG::kWhite && cnt[0] == 0)
      return coins_.fair_coin(t, u) ? ColorG::kBlack : ColorG::kWhite;
    // Gray: reads sigma_{t-1} (the switch advances after this round commits).
    return switch_->on(u) ? ColorG::kWhite : ColorG::kGray;
  }

  // --- lazy switch (engine.hpp, RuleHasLazyRounds) --------------------------
  //
  // Only gray transitions read sigma, and grays are always scheduled, so
  // while the live worklist is empty no vertex can read the switch: with
  // fast-forward on (the default) the phase-clock switch round is deferred in
  // such quiet rounds and replayed in one batch — bit-identically, the clock
  // being autonomous — before the next non-quiet round decides. Gating on
  // the worklist rather than the gray count alone keeps the deferral from
  // flapping pre-stabilization (sparse runs pass through many zero-gray
  // rounds whose actives re-spawn grays immediately, and a one-round
  // defer/replay cycle is pure overhead). Post-stabilization (grays
  // drained) a round is O(1).
  void begin_round(bool quiet) {
    if (!lazy_) return;
    if (!quiet) sync_switch();
    defer_switch_ = quiet;
  }
  // The switch advances in lockstep, *after* its round-(t-1) value was read
  // (or is recorded for replay under deferral).
  void end_round(std::int64_t) {
    if (defer_switch_)
      ++deferred_rounds_;
    else
      switch_->step();
  }
  // Turning the lazy switch off replays any deferred rounds, restoring
  // exact lockstep.
  void set_fast_forward(bool on) {
    if (!on) {
      sync_switch();
      defer_switch_ = false;
    }
    lazy_ = on;
  }
  std::int64_t deferred_switch_rounds() const { return deferred_rounds_; }

  // Exact-switch accessors: replay any deferred clock rounds first, so
  // external reads and writes always see the logical round-aligned state.
  const SwitchProcess& switch_process() const {
    sync_switch();
    return *switch_;
  }
  SwitchProcess& switch_process() {
    sync_switch();
    return *switch_;
  }

  // Combined per-vertex state count (3 colors x switch states).
  int num_states() const { return 3 * switch_->num_states(); }

  // Transient fault on u's switch state (EngineProcess, RuleHasFaultState):
  // a phase-clock switch gets level (w >> 8) mod its state count; the
  // deterministic test switches have no per-vertex state to corrupt.
  void inject_fault(Vertex u, std::uint64_t w);

 private:
  void sync_switch() const {
    if (deferred_rounds_ > 0) switch_->advance(deferred_rounds_);
    deferred_rounds_ = 0;
  }

  CoinOracle coins_;
  std::unique_ptr<SwitchProcess> switch_;
  bool lazy_ = true;
  bool defer_switch_ = false;
  // Mutable: exact-state reads replay the deferral without changing the
  // logical state.
  mutable std::int64_t deferred_rounds_ = 0;
};

}  // namespace ssmis
