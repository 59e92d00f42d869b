// Determinism regression tests for the parallel trial runtime.
//
// The contract under test (ISSUE 2 / docs/architecture.md "Parallel
// runtime"): sharded engine stepping and batched trial scheduling are pure
// throughput knobs — trajectories, Measurements, and every per-trial
// artifact are bit-identical at any thread/shard count, for every rule
// (all five MIS processes and both communication-model simulators).
//
// The shard counts exercised include values above the host's core count
// (oversubscription must not change results either) and can be raised via
// the SSMIS_TEST_THREADS environment variable — the CI ThreadSanitizer job
// runs this suite with SSMIS_TEST_THREADS=4 to race-check the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/daemon.hpp"
#include "core/init.hpp"
#include "core/process.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "core/two_state_variant.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "harness/trial_batch.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"
#include "models/stone_age.hpp"
#include "support/thread_pool.hpp"

namespace ssmis {
namespace {

int env_threads() {
  const char* s = std::getenv("SSMIS_TEST_THREADS");
  if (s == nullptr) return 8;
  const int v = std::atoi(s);
  return v >= 1 ? v : 8;
}

// A graph big enough that the engine's shard grain (kShardGrain = 256) is
// exceeded and decide really fans out.
const Graph& test_graph() {
  static const Graph g = gen::gnp(2048, 0.004, 99);
  return g;
}

// Steps `make()`-constructed processes side by side, sequential vs sharded,
// asserting bit-identical colors every round.
template <typename Make>
void expect_sharded_identical(Make make, int rounds) {
  for (int shards : {2, env_threads()}) {
    auto seq = make();
    auto par = make();
    par->set_shards(shards);
    for (int r = 0; r < rounds; ++r) {
      seq->step();
      par->step();
      ASSERT_EQ(seq->engine().colors(), par->engine().colors())
          << "diverged at round " << r << " with " << shards << " shards";
    }
  }
}

TEST(ShardedStepping, TwoStateBitIdentical) {
  const Graph& g = test_graph();
  expect_sharded_identical(
      [&] {
        const CoinOracle coins(7);
        return std::make_unique<EngineProcess<TwoStateRule>>(
            g, make_init2(g, InitPattern::kUniformRandom, coins),
            TwoStateRule(coins));
      },
      60);
}

TEST(ShardedStepping, TwoStateVariantBitIdentical) {
  const Graph& g = test_graph();
  expect_sharded_identical(
      [&] {
        const CoinOracle coins(11);
        return std::make_unique<EngineProcess<TwoStateVariantRule>>(
            g, make_init2(g, InitPattern::kUniformRandom, coins),
            TwoStateVariantRule(coins, 0.25, true));
      },
      60);
}

TEST(ShardedStepping, ThreeStateBitIdentical) {
  const Graph& g = test_graph();
  expect_sharded_identical(
      [&] {
        const CoinOracle coins(13);
        return std::make_unique<EngineProcess<ThreeStateRule>>(
            g, make_init3(g, InitPattern::kUniformRandom, coins),
            ThreeStateRule(coins));
      },
      60);
}

TEST(ShardedStepping, ThreeColorBitIdentical) {
  const Graph& g = test_graph();
  for (int shards : {2, env_threads()}) {
    const CoinOracle coins(17);
    const auto init = make_init_g(g, InitPattern::kUniformRandom, coins);
    EngineProcess<ThreeColorRule> seq(
        g, init, ThreeColorRule::with_randomized_switch(g, coins));
    EngineProcess<ThreeColorRule> par(
        g, init, ThreeColorRule::with_randomized_switch(g, coins));
    par.set_shards(shards);
    for (int r = 0; r < 60; ++r) {
      seq.step();
      par.step();
      ASSERT_EQ(seq.engine().colors(), par.engine().colors()) << "round " << r;
      ASSERT_EQ(seq.snapshot().gray, par.snapshot().gray) << "round " << r;
    }
  }
}

// The aggregates are maintained incrementally through the same merged apply
// pass — check them against the sequential run, not just the colors.
TEST(ShardedStepping, AggregatesMatchSequential) {
  const Graph& g = test_graph();
  const CoinOracle coins(23);
  const auto init = make_init2(g, InitPattern::kUniformRandom, coins);
  EngineProcess<TwoStateRule> seq(g, init, TwoStateRule(coins));
  EngineProcess<TwoStateRule> par(g, init, TwoStateRule(coins));
  par.set_shards(env_threads());
  for (int r = 0; r < 80; ++r) {
    seq.step();
    par.step();
    const RoundStats a = seq.snapshot();
    const RoundStats b = par.snapshot();
    ASSERT_EQ(a.black, b.black);
    ASSERT_EQ(a.active, b.active);
    ASSERT_EQ(a.stable_black, b.stable_black);
    ASSERT_EQ(a.unstable, b.unstable);
    ASSERT_EQ(seq.engine().num_scheduled(), par.engine().num_scheduled());
  }
}

TEST(ShardedStepping, DaemonSubsetTransitionsBitIdentical) {
  const Graph& g = test_graph();
  for (int shards : {2, env_threads()}) {
    const CoinOracle coins(29);
    DaemonProcess seq(g, make_init2(g, InitPattern::kUniformRandom, coins),
                      std::make_unique<RandomSubsetDaemon>(0.7, 31), coins);
    DaemonProcess par(g, make_init2(g, InitPattern::kUniformRandom, coins),
                      std::make_unique<RandomSubsetDaemon>(0.7, 31), coins);
    par.set_shards(shards);
    for (int s = 0; s < 60 && !seq.stabilized(); ++s) {
      seq.step();
      par.step();
      ASSERT_EQ(seq.activations(), par.activations()) << "step " << s;
      ASSERT_EQ(seq.engine().colors(), par.engine().colors()) << "step " << s;
    }
  }
}

TEST(ShardedStepping, BeepingNetworkBitIdentical) {
  const Graph& g = test_graph();
  const TwoStateBeepAutomaton automaton;
  for (int shards : {2, env_threads()}) {
    const CoinOracle coins(37);
    std::vector<std::uint8_t> init(static_cast<std::size_t>(g.num_vertices()),
                                   TwoStateBeepAutomaton::kBlack);
    BeepingNetwork seq(g, automaton, init, coins);
    BeepingNetwork par(g, automaton, init, coins);
    par.set_shards(shards);
    // Loss makes the transition draw an extra coin per heard vertex — the
    // parallel path must consume the identical pure-function coins.
    seq.set_loss_probability(0.05);
    par.set_loss_probability(0.05);
    for (int r = 0; r < 60; ++r) {
      seq.step();
      par.step();
      ASSERT_EQ(seq.states(), par.states()) << "round " << r;
      ASSERT_EQ(seq.total_beeps(), par.total_beeps()) << "round " << r;
    }
  }
}

TEST(ShardedStepping, StoneAgeNetworkBitIdentical) {
  const Graph& g = test_graph();
  const ThreeStateStoneAgeAutomaton automaton;
  for (int shards : {2, env_threads()}) {
    const CoinOracle coins(41);
    const auto c3 = make_init3(g, InitPattern::kUniformRandom, coins);
    std::vector<std::uint8_t> init(c3.size());
    for (std::size_t i = 0; i < c3.size(); ++i)
      init[i] = ThreeStateStoneAgeAutomaton::encode(c3[i]);
    StoneAgeNetwork seq(g, automaton, init, coins);
    StoneAgeNetwork par(g, automaton, init, coins);
    par.set_shards(shards);
    for (int r = 0; r < 60; ++r) {
      seq.step();
      par.step();
      ASSERT_EQ(seq.states(), par.states()) << "round " << r;
    }
  }
}

// Faults injected mid-run route through the same merged apply pass; the
// sharded engine must keep counters consistent across them.
TEST(ShardedStepping, ForceColorInterleavedBitIdentical) {
  const Graph& g = test_graph();
  const CoinOracle coins(43);
  const auto init = make_init2(g, InitPattern::kAllWhite, coins);
  ProcessEngine<TwoStateRule> seq(g, init, TwoStateRule(coins));
  ProcessEngine<TwoStateRule> par(g, init, TwoStateRule(coins));
  par.set_shards(env_threads());
  for (int r = 0; r < 40; ++r) {
    seq.step();
    par.step();
    if (r % 7 == 3) {
      const Vertex u = static_cast<Vertex>((r * 131) % g.num_vertices());
      seq.force_color(u, Color2::kBlack);
      par.force_color(u, Color2::kBlack);
    }
    ASSERT_EQ(seq.colors(), par.colors()) << "round " << r;
  }
}

// --- harness: batched trial scheduling ------------------------------------

void expect_measurements_equal(const Measurements& a, const Measurements& b,
                               const char* label) {
  EXPECT_EQ(a.stabilization_rounds, b.stabilization_rounds) << label;
  EXPECT_EQ(a.timeout_seeds, b.timeout_seeds) << label;
  EXPECT_EQ(a.timeouts, b.timeouts) << label;
  EXPECT_EQ(a.summary.count, b.summary.count) << label;
  EXPECT_EQ(a.summary.mean, b.summary.mean) << label;
  EXPECT_EQ(a.summary.p95, b.summary.p95) << label;
}

TEST(TrialBatchScheduling, MeasurementsIdenticalAcrossThreadCounts) {
  const Graph g = gen::gnp(256, 0.03, 5);
  for (const char* protocol : {"2state", "3state", "3color"}) {
    MeasureConfig config;
    config.protocol = protocol;
    config.trials = 12;
    config.seed = 100;
    config.max_rounds = 100000;
    const Measurements seq = measure_stabilization(g, config);
    for (int threads : {2, env_threads()}) {
      config.threads = threads;
      config.batch = true;
      const Measurements batched = measure_stabilization(g, config);
      expect_measurements_equal(seq, batched, "batched");
      config.batch = false;  // sharded stepping per trial instead
      const Measurements sharded = measure_stabilization(g, config);
      expect_measurements_equal(seq, sharded, "sharded");
    }
  }
}

TEST(TrialBatchScheduling, TimeoutSeedsReportedPerTrial) {
  // K_2 from all-black with a 0-round horizon: every trial times out, so
  // the timeout seeds must be exactly seed..seed+trials-1 in order.
  const Graph g = gen::complete(2);
  MeasureConfig config;
  config.init = InitPattern::kAllBlack;
  config.trials = 5;
  config.seed = 40;
  config.max_rounds = 0;
  for (int threads : {1, env_threads()}) {
    config.threads = threads;
    const Measurements m = measure_stabilization(g, config);
    EXPECT_EQ(m.timeouts, 5);
    EXPECT_EQ(m.timeout_seeds,
              (std::vector<std::uint64_t>{40, 41, 42, 43, 44}));
    EXPECT_TRUE(m.stabilization_rounds.empty());
  }
}

TEST(TrialBatchScheduling, VertexTimesBatchMatchesSequentialPerSeed) {
  const Graph g = gen::gnp(200, 0.04, 3);
  MeasureConfig config;
  config.trials = 6;
  config.seed = 55;
  config.max_rounds = 100000;
  config.threads = env_threads();
  const auto batched = vertex_stabilization_times_batch(g, config);
  ASSERT_EQ(batched.size(), 6u);
  for (int trial = 0; trial < 6; ++trial) {
    MeasureConfig one = config;
    one.threads = 1;
    one.seed = trial_seed(config, trial);
    EXPECT_EQ(batched[static_cast<std::size_t>(trial)],
              vertex_stabilization_times(g, one))
        << "trial " << trial;
  }
}

// --- the pool itself -------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool& pool = ThreadPool::shared();
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(257, env_threads(),
                    [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool& pool = ThreadPool::shared();
  std::atomic<int> total{0};
  pool.parallel_for(4, env_threads(), [&](int) {
    // Nested fan-out must degrade to an inline loop, not deadlock.
    pool.parallel_for(8, env_threads(), [&](int) { total++; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ExceptionsPropagateToSubmitter) {
  ThreadPool& pool = ThreadPool::shared();
  EXPECT_THROW(pool.parallel_for(16, env_threads(),
                                 [](int i) {
                                   if (i == 7)
                                     throw std::runtime_error("trial failed");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> ran{0};
  pool.parallel_for(8, env_threads(), [&](int) { ran++; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(TrialBatch, MapPreservesTrialOrder) {
  const TrialBatch batch(100, env_threads());
  const auto out = batch.map<int>([](int i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

}  // namespace
}  // namespace ssmis
