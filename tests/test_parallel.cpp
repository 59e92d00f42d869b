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

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "core/init.hpp"
#include "core/priority_mis.hpp"
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

// G(2^17, avg deg 4): a uniform-random 2-state start schedules about half
// the vertices and changes about a quarter in round 1, both above the
// engine's fan-out floor (kHeavyRoundMin = 2^14), so the early rounds really
// run on the pool. Every test below asserts that they did: on a graph below
// the floor a sharded run is a serial run.
const Graph& test_graph() {
  static const Graph g = gen::gnp(1 << 17, 4.0 / (1 << 17), 99);
  return g;
}

// Steps `make()`-constructed processes side by side, sequential vs sharded,
// asserting bit-identical colors every round and that both phases fanned
// out.
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
    EXPECT_GT(par->engine().sharded_decides(), 0) << shards << " shards";
    EXPECT_GT(par->engine().sharded_applies(), 0) << shards << " shards";
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
    EXPECT_GT(par.engine().sharded_decides(), 0) << shards << " shards";
    EXPECT_GT(par.engine().sharded_applies(), 0) << shards << " shards";
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
  EXPECT_GT(par.engine().sharded_decides(), 0);
  EXPECT_GT(par.engine().sharded_applies(), 0);
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
    EXPECT_GT(par.engine().sharded_decides(), 0) << shards << " shards";
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
    EXPECT_GT(par.engine().sharded_decides(), 0) << shards << " shards";
    EXPECT_GT(par.engine().sharded_applies(), 0) << shards << " shards";
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
    EXPECT_GT(par.engine().sharded_decides(), 0) << shards << " shards";
    EXPECT_GT(par.engine().sharded_applies(), 0) << shards << " shards";
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
  EXPECT_GT(par.sharded_decides(), 0);
  EXPECT_GT(par.sharded_applies(), 0);
}

// --- sharded apply: full engine state, every rule, every storage ----------
//
// Heavy rounds (at least kHeavyRoundMin changes and |changed| *
// kHeavyRoundRatio >= n) commit, patch and refresh on the pool; light
// rounds take the serial touched-list path. The complete observable engine
// state must match a 1-shard engine after every round, across heavy
// rounds, light rounds, a daemon apply and a burst of force_color faults.

struct ApplyGraph {
  std::string name;
  Graph g;
};

// G(2^17, avg deg 4) — big enough that a uniform-random start changes
// about n/4 > kHeavyRoundMin colors in round 1 — and the same graph plus a
// star hub at vertex 0 (its row spans every shard's vertex range), each on
// plain and compressed storage.
const std::vector<ApplyGraph>& apply_graphs() {
  static const std::vector<ApplyGraph> graphs = [] {
    const Vertex n = 1 << 17;
    const Graph base = gen::gnp(n, 4.0 / n, 5);
    std::vector<Edge> edges;
    for (Vertex u = 0; u < base.num_vertices(); ++u) {
      base.for_each_neighbor(u, [&](Vertex v) {
        if (u < v && u != 0) edges.emplace_back(u, v);
      });
    }
    for (Vertex v = 1; v < base.num_vertices(); ++v) edges.emplace_back(0, v);
    const Graph skewed = Graph::from_edges(base.num_vertices(), edges);
    std::vector<ApplyGraph> out;
    out.push_back({"gnp/plain", base});
    out.push_back({"gnp/compressed", Graph::compress(base)});
    out.push_back({"hub+gnp/plain", skewed});
    out.push_back({"hub+gnp/compressed", Graph::compress(skewed)});
    return out;
  }();
  return graphs;
}

// First difference between two engines' observable state, or "" if none.
template <typename Rule>
std::string state_diff(const ProcessEngine<Rule>& a, const ProcessEngine<Rule>& b) {
  using Color = typename Rule::Color;
  if (a.num_fast_forwarded() != b.num_fast_forwarded()) return "num_fast_forwarded";
  // colors() materializes every parked vertex, which makes the raw
  // counters exact.
  if (a.colors() != b.colors()) return "colors";
  if (!std::ranges::equal(a.raw_counters(), b.raw_counters())) return "counters";
  for (Vertex u = 0; u < a.graph().num_vertices(); ++u) {
    if (a.scheduled(u) != b.scheduled(u) || a.active(u) != b.active(u) ||
        a.stable_black(u) != b.stable_black(u) || a.unstable(u) != b.unstable(u)) {
      std::ostringstream oss;
      oss << "flags of vertex " << u;
      return oss.str();
    }
  }
  for (int c = 0; c < a.num_colors(); ++c) {
    // Exact without another sync: colors() above materialized every orbit.
    if (a.raw_color_count(static_cast<Color>(c)) != b.raw_color_count(static_cast<Color>(c)))
      return "histogram";
  }
  if (a.scheduled_set() != b.scheduled_set()) return "scheduled_set";
  if (a.num_active() != b.num_active()) return "num_active";
  if (a.num_violations() != b.num_violations()) return "num_violations";
  if (a.num_stable_black() != b.num_stable_black()) return "num_stable_black";
  if (a.num_unstable() != b.num_unstable()) return "num_unstable";
  return "";
}

// Steps a 1-shard and an s-shard engine side by side for 8 rounds and
// compares their full state after every round. After round 1 both take a
// daemon apply of the whole scheduled set, and after round 4 a burst of
// 1024 force_color faults.
template <typename Rule, typename MakeInit, typename MakeRule>
void expect_full_state_identical(MakeInit make_init, MakeRule make_rule) {
  using Color = typename Rule::Color;
  for (const ApplyGraph& ag : apply_graphs()) {
    const Graph& g = ag.g;
    const Vertex n = g.num_vertices();
    const auto init = make_init(g);
    for (int shards : {2, env_threads()}) {
      SCOPED_TRACE(ag.name + " at " + std::to_string(shards) + " shards");
      ProcessEngine<Rule> seq(g, init, make_rule(g));
      ProcessEngine<Rule> par(g, init, make_rule(g));
      par.set_shards(shards);
      for (int r = 1; r <= 8; ++r) {
        seq.step();
        par.step();
        if (r == 1) {
          ASSERT_EQ(par.sharded_decides(), 1) << "round 1 was not heavy";
          ASSERT_EQ(par.sharded_applies(), 1) << "round 1 was not heavy";
          ASSERT_EQ(state_diff(seq, par), "") << "round 1";
          // A daemon apply of the whole scheduled set takes the heavy path
          // exactly when its change count passes both thresholds.
          const std::vector<Color> before = seq.colors();
          const std::vector<Vertex> chosen = seq.scheduled_set();
          seq.apply_transitions(chosen, 1000);
          par.apply_transitions(chosen, 1000);
          const std::vector<Color>& after = seq.colors();
          std::size_t changed = 0;
          for (std::size_t u = 0; u < before.size(); ++u)
            changed += before[u] != after[u] ? 1 : 0;
          const bool heavy =
              changed >= ProcessEngine<Rule>::kHeavyRoundMin &&
              changed * ProcessEngine<Rule>::kHeavyRoundRatio >= before.size();
          ASSERT_EQ(par.sharded_applies(), heavy ? 2 : 1) << changed << " changes";
        }
        if (r == 4) {
          // Vertex 0 first: on the skewed graph that is the hub.
          for (Vertex i = 0; i < 1024; ++i) {
            const Vertex u = static_cast<Vertex>((std::int64_t{i} * 4099) % n);
            const auto c = static_cast<Color>(static_cast<int>(i) % seq.num_colors());
            seq.force_color(u, c);
            par.force_color(u, c);
          }
        }
        ASSERT_EQ(state_diff(seq, par), "") << "round " << r;
      }
      EXPECT_EQ(seq.sharded_applies(), 0);
    }
  }
}

TEST(ShardedApply, TwoStateFullStateIdentical) {
  const CoinOracle coins(61);
  expect_full_state_identical<TwoStateRule>(
      [&](const Graph& g) { return make_init2(g, InitPattern::kUniformRandom, coins); },
      [&](const Graph&) { return TwoStateRule(coins); });
}

TEST(ShardedApply, TwoStateVariantFullStateIdentical) {
  const CoinOracle coins(67);
  expect_full_state_identical<TwoStateVariantRule>(
      [&](const Graph& g) { return make_init2(g, InitPattern::kUniformRandom, coins); },
      [&](const Graph&) { return TwoStateVariantRule(coins, 0.25, true); });
}

TEST(ShardedApply, PriorityFullStateIdentical) {
  const CoinOracle coins(71);
  expect_full_state_identical<PriorityMisRule>(
      [&](const Graph& g) { return make_init2(g, InitPattern::kUniformRandom, coins); },
      [&](const Graph& g) {
        return PriorityMisRule(coins,
                               PriorityMisRule::make_biases(g, "degree", 0.1, 0.9, 3));
      });
}

TEST(ShardedApply, ThreeStateFastForwardFullStateIdentical) {
  const CoinOracle coins(73);
  expect_full_state_identical<ThreeStateRule>(
      [&](const Graph& g) { return make_init3(g, InitPattern::kUniformRandom, coins); },
      [&](const Graph&) { return ThreeStateRule(coins); });
}

TEST(ShardedApply, ThreeColorLazySwitchFullStateIdentical) {
  const CoinOracle coins(79);
  expect_full_state_identical<ThreeColorRule>(
      [&](const Graph& g) { return make_init_g(g, InitPattern::kUniformRandom, coins); },
      [&](const Graph& g) { return ThreeColorRule::with_randomized_switch(g, coins); });
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
      // Trials one after another, each engine handed `threads` shards. On
      // this graph every round is below the fan-out floor, so this pins the
      // harness's per-trial schedule; ShardedStepping.* prove the fan-out.
      config.batch = false;
      const Measurements per_trial = measure_stabilization(g, config);
      expect_measurements_equal(seq, per_trial, "per-trial");
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
