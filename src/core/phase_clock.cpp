#include "core/phase_clock.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/narrow.hpp"

namespace ssmis {

PhaseClock::PhaseClock(const Graph& g, int d, std::vector<int> init_levels,
                       const CoinOracle& coins, std::uint64_t zeta_num,
                       unsigned zeta_log2_den)
    : graph_(&g),
      coins_(coins),
      d_(d),
      zeta_num_(zeta_num),
      zeta_log2_den_(zeta_log2_den) {
  if (d < 1 || d > 253) throw std::invalid_argument("PhaseClock: d must be in [1, 253]");
  if (zeta_log2_den == 0 || zeta_log2_den > 63 ||
      zeta_num == 0 || zeta_num >= (static_cast<std::uint64_t>(1) << zeta_log2_den))
    throw std::invalid_argument("PhaseClock: zeta must be in (0,1)");
  if (init_levels.size() != static_cast<std::size_t>(g.num_vertices()))
    throw std::invalid_argument("PhaseClock: init size != num_vertices");
  levels_.reserve(init_levels.size());
  for (int lvl : init_levels) {
    if (lvl < 0 || lvl > top_level())
      throw std::invalid_argument("PhaseClock: init level out of range");
    levels_.push_back(static_cast<std::uint8_t>(lvl));
  }
  mark_.assign(levels_.size(), 0);
}

PhaseClock PhaseClock::with_random_levels(const Graph& g, int d,
                                          const CoinOracle& coins,
                                          std::uint64_t zeta_num,
                                          unsigned zeta_log2_den) {
  std::vector<int> levels(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    levels[static_cast<std::size_t>(u)] = narrow_cast<int>(
        coins.word(-1, u, CoinTag::kSwitchBit) % static_cast<std::uint64_t>(d + 3));
  }
  return PhaseClock(g, d, std::move(levels), coins, zeta_num, zeta_log2_den);
}

double PhaseClock::zeta() const {
  return static_cast<double>(zeta_num_) /
         std::pow(2.0, static_cast<double>(zeta_log2_den_));
}

std::vector<int> PhaseClock::levels() const {
  return {levels_.begin(), levels_.end()};
}

void PhaseClock::visit(Vertex u, std::int64_t t) {
  const int top = top_level();
  const int lvl = level(u);
  // At the top, b = 0 with probability zeta; b = 1 keeps the vertex there.
  // Level 0 wraps to the top. Everything else takes max over N+(u), minus 1.
  bool to_top = lvl == 0;
  if (lvl == top)
    to_top = !coins_.dyadic_bernoulli(t, u, CoinTag::kSwitchBit, zeta_num_,
                                      zeta_log2_den_);
  int next = top;
  if (!to_top) {
    int max_level = lvl;
    graph_->for_each_neighbor(u, [&](Vertex v) {
      max_level = std::max(max_level, level(v));
      return max_level < top;
    });
    next = max_level - 1;
  }
  if (next == top) next_top_.push_back(u);
  if (next != lvl) {
    changed_.push_back(u);
    changed_level_.push_back(static_cast<std::uint8_t>(next));
  }
}

void PhaseClock::step() {
  const std::int64_t t = round_ + 1;
  next_top_.clear();
  changed_.clear();
  changed_level_.clear();
  if (all_dirty_) {
    for (Vertex u = 0; u < graph_->num_vertices(); ++u) visit(u, t);
    all_dirty_ = false;
  } else {
    if (++epoch_ == 0) {
      std::fill(mark_.begin(), mark_.end(), std::uint8_t{0});
      epoch_ = 1;
    }
    const auto candidate = [&](Vertex u) {
      std::uint8_t& m = mark_[static_cast<std::size_t>(u)];
      if (m == epoch_) return;
      m = epoch_;
      visit(u, t);
    };
    for (Vertex u : top_) candidate(u);
    for (Vertex u : dirty_) {
      candidate(u);
      graph_->for_each_neighbor(u, candidate);
    }
  }
  // Commit only after every visit has read the round-t levels.
  for (std::size_t i = 0; i < changed_.size(); ++i)
    levels_[static_cast<std::size_t>(changed_[i])] = changed_level_[i];
  dirty_.swap(changed_);
  top_.swap(next_top_);
  ++round_;
}

void PhaseClock::advance(std::int64_t rounds) {
  for (std::int64_t i = 0; i < rounds; ++i) step();
}

void PhaseClock::force_level(Vertex u, int lvl) {
  if (u < 0 || u >= graph_->num_vertices())
    throw std::out_of_range("force_level: vertex out of range");
  if (lvl < 0 || lvl > top_level())
    throw std::invalid_argument("force_level: level out of range");
  levels_[static_cast<std::size_t>(u)] = static_cast<std::uint8_t>(lvl);
  dirty_.push_back(u);
}

}  // namespace ssmis
