#include "core/two_state_variant.hpp"

#include <memory>

#include "core/init.hpp"
#include "core/process.hpp"
#include "harness/registry.hpp"

namespace ssmis {

namespace {

const ProtocolRegistrar kTwoStateVariantProtocol{
    "2state-variant",
    "parameterized 2-state ablation: active vertices turn black with "
    "probability black-bias; eager-white makes white->black deterministic",
    {"black-bias", "eager-white"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      return std::make_unique<EngineProcess<TwoStateVariantRule>>(
          g, make_init2(g, params.init, coins),
          TwoStateVariantRule(coins, params.get_double("black-bias", 0.5),
                              params.get_bool("eager-white", false)));
    }};

}  // namespace

}  // namespace ssmis
