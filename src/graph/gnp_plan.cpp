#include "graph/gnp_plan.hpp"

#include <algorithm>

#include "support/thread_pool.hpp"

namespace ssmis {
namespace gen {

namespace {

// Pair-index sums saturate here: n(n-1)/2 < 2^61 for every n < 2^31, so a
// saturated span has left the pair range and its exact value is moot. Each
// term is at most 2^61 + 1e18 + 1 < 2^63 before the clamp.
constexpr std::int64_t kSpanCap = std::int64_t{1} << 61;

}  // namespace

PairCursor pair_at(std::int64_t index) {
  if (index < 0) return PairCursor{};
  // Row v is the largest with v(v-1)/2 <= index. The double root can be off
  // by one either way once index exceeds 2^53; the loops settle it exactly
  // (v(v+1) stays below 2^63 for v <= 2^31).
  auto v = static_cast<std::int64_t>(
      (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(index))) / 2.0);
  v = std::max<std::int64_t>(v, 1);
  while (v * (v - 1) / 2 > index) --v;
  while ((v + 1) * v / 2 <= index) ++v;
  return PairCursor{index - v * (v - 1) / 2, v};
}

GnpPlan::GnpPlan(Vertex n, double p, std::uint64_t seed)
    : n_(n), log_1mp_(std::log1p(-p)) {
  Xoshiro256 rng(seed);
  const std::int64_t pairs = static_cast<std::int64_t>(n) * (n - 1) / 2;
  std::int64_t reach = -1;  // pair index after the last planned draw
  // The stream makes one draw per edge plus the one that leaves the pair
  // range. The first batch covers the expected count with a 4-sigma margin;
  // a short batch (rare) is extended by smaller ones until some draw leaves.
  const double expected = static_cast<double>(pairs) * p + 1.0;
  const double first_batch =
      std::ceil((expected + 4.0 * std::sqrt(expected)) /
                static_cast<double>(kSegmentDraws));
  std::int64_t batch = static_cast<std::int64_t>(std::clamp(first_batch, 1.0, 65536.0));
  std::vector<std::int64_t> spans;
  for (;;) {
    const std::size_t first = checkpoints_.size();
    for (std::int64_t b = 0; b < batch; ++b) {
      checkpoints_.push_back(rng);
      for (std::int64_t k = 0; k < kSegmentDraws; ++k) rng.next();
    }
    spans.assign(static_cast<std::size_t>(batch), 0);
    ThreadPool::shared().parallel_for(
        narrow_cast<int>(batch), ThreadPool::hardware_width(), [&](int b) {
          Xoshiro256 r = checkpoints_[first + static_cast<std::size_t>(b)];
          std::int64_t span = 0;
          for (std::int64_t k = 0; k < kSegmentDraws; ++k)
            span = std::min(span + 1 + geometric_skip(r.next_double(), log_1mp_),
                            kSpanCap);
          spans[static_cast<std::size_t>(b)] = span;
        });
    for (const std::int64_t span : spans) {
      starts_.push_back(reach);
      reach = std::min(reach + span, kSpanCap);
      if (reach >= pairs) {
        checkpoints_.erase(checkpoints_.begin() + narrow_cast<std::ptrdiff_t>(starts_.size()),
                           checkpoints_.end());
        return;
      }
    }
    batch = std::max<std::int64_t>(1, batch / 16);
  }
}

}  // namespace gen
}  // namespace ssmis
