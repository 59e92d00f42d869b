#include "core/two_state.hpp"

#include <memory>

#include "core/init.hpp"
#include "core/process.hpp"
#include "harness/registry.hpp"

namespace ssmis {

namespace {

// Registry entry. The construction matches the pre-registry harness driver
// exactly (same oracle, same init draw), so registry-era trajectories are
// bit-identical to the enum-era ones (pinned in tests/test_registry.cpp).
const ProtocolRegistrar kTwoStateProtocol{
    "2state",
    "the paper's 2-state MIS process (Definition 4): active vertices "
    "resample uniformly; 1 bit of state, beeping-model implementable",
    {},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      return std::make_unique<EngineProcess<TwoStateRule>>(
          g, make_init2(g, params.init, coins), TwoStateRule(coins));
    }};

}  // namespace

}  // namespace ssmis
