// G(n,p) skip-sampling as a segmented, replayable edge source.
//
// gen::gnp walks the pairs (u < v) in a fixed order and jumps between
// present edges by geometric(p) skips drawn from one Xoshiro256 stream. The
// stream is inherently serial: draw i's pair depends on every earlier skip.
// GnpPlan cuts it into segments of kSegmentDraws draws that replay
// independently, so CsrBuilder can fan a build out over the shared pool:
//
//   1. a serial walk advances a copy of the generator with bare next() calls
//      (one per draw, no logarithm) and checkpoints its state at every
//      segment start;
//   2. the pool sums each segment's 1 + skip pair-index spans in parallel;
//   3. a prefix sum gives every segment its starting pair index, which
//      pair_at converts back to the (u, v) cursor the serial loop would hold
//      there.
//
// Each segment then runs the serial loop itself (emit_gnp_draws) from its
// checkpoint, so the segments together emit exactly the serial stream's
// edges, and every draw computes the same skip from the same generator
// state: the edge multiset, hence the built Graph, is bit-identical to the
// one-segment build.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "rng/xoshiro256.hpp"
#include "support/narrow.hpp"

namespace ssmis {
namespace gen {

// Geometric(p) skip length for G(n,p) skip-sampling, hardened against the
// floating-point edge cases: r at the extremes of next_double and denormal-
// small p can push log1p(-r)/log1p(-p) to -0.0, inf, or (0/-0) NaN; the
// clamps map every non-finite or negative value to a safe skip instead of
// feeding it to the int64 cast (UB on NaN/overflow). The 1e18 cap matches
// the pre-hardening code so in-range seeds keep byte-identical streams.
inline std::int64_t geometric_skip(double r, double log_1mp) {
  const double skip_f = std::floor(std::log1p(-r) / log_1mp);
  if (!(skip_f > 0.0)) return 0;  // NaN, -0.0, and negatives land here
  if (skip_f >= 1e18) return static_cast<std::int64_t>(1e18);
  return static_cast<std::int64_t>(skip_f);
}

// The skip-sampling cursor. Pairs (u < v) are numbered row by row,
// index(u, v) = v(v-1)/2 + u, so row v holds [v(v-1)/2, v(v+1)/2). The
// stream starts before the first pair, at index -1 = (u = -1, v = 1).
struct PairCursor {
  std::int64_t u = -1;
  std::int64_t v = 1;
};

inline std::int64_t pair_index(PairCursor c) { return c.v * (c.v - 1) / 2 + c.u; }

// Inverse of pair_index for index >= -1 (index -1 gives the start cursor,
// every other index a cursor with 0 <= u < v). Exact for any index below
// n(n-1)/2 with n < 2^31: the double square root only seeds the row, and an
// integer fix-up settles it.
PairCursor pair_at(std::int64_t index);

// Runs the serial skip-sampling loop from cursor `at` for at most `draws`
// draws of `rng`, or until the cursor leaves the n(n-1)/2 pairs, emitting
// every pair it lands on. Started at PairCursor{} with unbounded draws this
// is the whole G(n,p) stream.
template <typename Emit>
void emit_gnp_draws(Vertex n, double log_1mp, Xoshiro256 rng, PairCursor at,
                    std::int64_t draws, Emit&& emit) {
  std::int64_t u = at.u;
  std::int64_t v = at.v;
  for (std::int64_t i = 0; i < draws && v < n; ++i) {
    const std::int64_t skip = geometric_skip(rng.next_double(), log_1mp);
    u += 1 + skip;
    while (u >= v && v < n) {
      u -= v;
      ++v;
    }
    if (v < n) emit(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
}

// The segmented G(n,p) stream for 0 < p < 1 (see the header comment).
// Building a plan costs one serial pass of bare next() calls plus one
// parallel pass of skip draws: worth it only for graphs large enough to
// fan out, which is the caller's size gate.
class GnpPlan {
 public:
  // Draws per segment: ~1 ms of skip sampling, fine-grained enough for the
  // pool to balance and coarse enough that checkpoints cost nothing.
  static constexpr std::int64_t kSegmentDraws = std::int64_t{1} << 16;

  GnpPlan(Vertex n, double p, std::uint64_t seed);

  [[nodiscard]] int segments() const { return narrow_cast<int>(starts_.size()); }

  // Emits segment s's edges; any order of segment calls, on any threads.
  template <typename Emit>
  void replay(int s, Emit&& emit) const {
    const auto i = static_cast<std::size_t>(s);
    emit_gnp_draws(n_, log_1mp_, checkpoints_[i], pair_at(starts_[i]),
                   kSegmentDraws, emit);
  }

 private:
  Vertex n_;
  double log_1mp_;
  std::vector<Xoshiro256> checkpoints_;  // generator state at segment start
  std::vector<std::int64_t> starts_;     // pair index before segment's 1st draw
};

}  // namespace gen
}  // namespace ssmis
