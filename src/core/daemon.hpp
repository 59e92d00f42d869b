// Activation daemons: the general adversarial-scheduler model of Section 1.
//
// The paper's synchronous 2-state process activates EVERY inconsistent
// vertex each round; the sequential algorithm of [Shukla et al. 95]
// activates exactly one. Both are special cases of a daemon that, each
// step, activates an arbitrary non-empty subset of the enabled vertices —
// and the observation the paper cites is that with *randomized* transitions
// the process stabilizes with probability 1 under every such daemon.
//
// DaemonProcess runs the 2-state rule under a pluggable ActivationDaemon:
//   * SynchronousDaemon   — all enabled vertices (the paper's process;
//                           bit-identical to 2state given the oracle)
//   * CentralDaemon       — a single enabled vertex per step
//   * RandomSubsetDaemon  — each enabled vertex independently w.p. rho
//                           (rho -> 1 recovers synchronous behavior)
// No adversarial daemon exists yet: one that chooses its subset against the
// current configuration is still to be written.
//
// DaemonProcess drives the same ProcessEngine<TwoStateRule> as the
// synchronous process, through the engine's subset-transition primitive:
// the enabled set IS the engine's scheduled worklist, so enabled-set
// queries are O(|enabled|) rather than O(n) scans.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "core/process.hpp"
#include "core/two_state.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class ActivationDaemon {
 public:
  virtual ~ActivationDaemon() = default;
  // Chooses a non-empty subset of `enabled` (sorted) to activate at `step`.
  // Returning an empty vector is treated as "activate all" to keep the
  // process live (a daemon must not starve the system forever).
  virtual std::vector<Vertex> activate(std::span<const Vertex> enabled,
                                       std::int64_t step) = 0;
  virtual std::string name() const = 0;
};

class SynchronousDaemon final : public ActivationDaemon {
 public:
  std::vector<Vertex> activate(std::span<const Vertex> enabled, std::int64_t) override {
    return {enabled.begin(), enabled.end()};
  }
  std::string name() const override { return "synchronous"; }
};

class CentralDaemon final : public ActivationDaemon {
 public:
  explicit CentralDaemon(std::uint64_t seed) : coins_(seed) {}
  std::vector<Vertex> activate(std::span<const Vertex> enabled,
                               std::int64_t step) override {
    const std::uint64_t w = coins_.word(step, 0, CoinTag::kScheduler);
    return {enabled[static_cast<std::size_t>(w % enabled.size())]};
  }
  std::string name() const override { return "central"; }

 private:
  CoinOracle coins_;
};

class RandomSubsetDaemon final : public ActivationDaemon {
 public:
  // Throws std::invalid_argument unless 0 < rho <= 1.
  RandomSubsetDaemon(double rho, std::uint64_t seed);
  std::vector<Vertex> activate(std::span<const Vertex> enabled,
                               std::int64_t step) override;
  std::string name() const override;

 private:
  double rho_;
  CoinOracle coins_;
};

// The 2-state rule under an activation daemon, as a Process. Enabled =
// active in the Definition 4 sense; an activated vertex resamples its color
// with the oracle coin phi_step(u) — exactly the 2-state coin stream, so the
// SynchronousDaemon run is bit-identical to the synchronous process. One
// daemon STEP is the unit round() counts (a central step activates one
// vertex, a synchronous step up to n — steps are not comparable across
// daemons, but the horizon semantics are uniform). The MIS aggregates,
// output, and faults are the 2-state ones.
class DaemonProcess final : public Process {
 public:
  using Engine = ProcessEngine<TwoStateRule>;

  // Throws std::invalid_argument on a null daemon or init size mismatch.
  DaemonProcess(const Graph& g, std::vector<Color2> init,
                std::unique_ptr<ActivationDaemon> daemon, const CoinOracle& coins);

  const Graph& graph() const override { return engine_.graph(); }
  // One daemon step: activates the daemon's chosen subset of the enabled
  // vertices (all of them if it chooses none). A no-op step once stabilized.
  void step() override;
  std::int64_t round() const override { return steps_; }
  bool stabilized() const override { return engine_.stabilized(); }
  RoundStats snapshot() const override { return mis_snapshot(engine_, steps_); }

  std::vector<Vertex> output_set() const override { return mis_output_set(engine_); }
  bool settled(Vertex u) const override { return !engine_.unstable(u); }
  void verify_output() const override { verify_mis_output(graph(), output_set()); }

  void force_state(Vertex u, std::uint8_t raw) override {
    engine_.force_color(u, static_cast<Color2>(raw));
  }
  std::uint8_t raw_state(Vertex u) const override {
    return static_cast<std::uint8_t>(engine_.color(u));
  }
  int num_colors() const override { return engine_.num_colors(); }

  // Shards the subset-transition computation across the shared thread pool
  // (bit-identical trajectories at any value; 1 = sequential). The daemon's
  // own choice of subset stays sequential — only the chosen vertices'
  // simultaneous coin flips fan out.
  void set_shards(int shards) override { engine_.set_shards(shards); }

  // Total vertex activations over all steps so far.
  std::int64_t activations() const { return activations_; }

  const Engine& engine() const { return engine_; }

 private:
  Engine engine_;
  std::unique_ptr<ActivationDaemon> daemon_;
  std::int64_t steps_ = 0;
  std::int64_t activations_ = 0;
};

}  // namespace ssmis
