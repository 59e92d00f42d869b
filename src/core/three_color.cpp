#include "core/three_color.hpp"

#include <memory>
#include <stdexcept>

#include "core/init.hpp"
#include "core/process.hpp"
#include "harness/registry.hpp"
#include "support/narrow.hpp"

namespace ssmis {

ThreeColorRule::ThreeColorRule(const CoinOracle& coins,
                               std::unique_ptr<SwitchProcess> sw)
    : coins_(coins), switch_(std::move(sw)) {
  if (switch_ == nullptr)
    throw std::invalid_argument("ThreeColorRule: switch must not be null");
  if (switch_->round() != 0)
    throw std::invalid_argument("ThreeColorRule: switch must start at round 0");
}

void ThreeColorRule::inject_fault(Vertex u, std::uint64_t w) {
  if (auto* sw = dynamic_cast<RandomizedLogSwitch*>(&switch_process())) {
    PhaseClock& clock = sw->clock();
    clock.force_level(u, narrow_cast<int>(
                             (w >> 8) % static_cast<std::uint64_t>(clock.num_states())));
  }
}

namespace {

const ProtocolRegistrar kThreeColorProtocol{
    "3color",
    "the paper's 3-color MIS process (Definition 28) with the randomized "
    "6-state logarithmic switch (or --proto-switch-d=D for the generalized "
    "phase-clock switch): poly(log n) on G(n,p) for ALL p "
    "(--proto-fast-forward=0 disables the lazy-switch fast-forward)",
    {"switch-d", "fast-forward"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      auto init = make_init_g(g, params.init, coins);
      auto rule =
          params.has("switch-d")
              ? ThreeColorRule(coins, std::make_unique<RandomizedLogSwitch>(
                                          g, coins, 1, 7,
                                          static_cast<int>(params.get_int(
                                              "switch-d", 3))))
              : ThreeColorRule::with_randomized_switch(g, coins);
      auto p = std::make_unique<EngineProcess<ThreeColorRule>>(
          g, std::move(init), std::move(rule));
      p->set_fast_forward(params.get_bool("fast-forward", true));
      return p;
    }};

}  // namespace

}  // namespace ssmis
