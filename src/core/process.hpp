// Type-erased process runtime: ONE measurement path for every rule.
//
// `Process` is the interface the harness actually needs —
// step/round/stabilized/trace snapshot/output/verify/force-state/shards — so
// trial scheduling, timeout accounting, per-vertex times, and the CLI all
// work for any registered protocol (harness/registry.hpp).
//
// Every engine-backed MIS rule reaches it through one class,
// `EngineProcess<Rule>`: the rule supplies the paper's transition table and
// its output predicate, the engine (core/engine.hpp) the stepping and the
// O(1) aggregates, and EngineProcess the Process surface. The remaining
// Process implementations are the protocols whose state or schedule is not
// one engine color per graph vertex: the daemon and matching processes and
// the communication-model networks.
//
// Cost model: type erasure sits at TRIAL granularity, not step granularity.
// A trial calls the virtual `run()` once; a `final` implementation runs the
// shared loop (Process::run_loop) on its own type, so step()/stabilized()
// are devirtualized and the hot stepping loop has zero added indirection.
// Drivers that interleave work between rounds (per-vertex times, the
// interactive simulator) pay one virtual call per ROUND — noise next to the
// O(|A_t| + sum deg(changed)) round body.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "core/trace.hpp"
#include "core/verify.hpp"
#include "graph/graph.hpp"

namespace ssmis {

class Process {
 public:
  virtual ~Process() = default;

  virtual const Graph& graph() const = 0;

  // One synchronous round (or one daemon step, for scheduler-driven
  // protocols — `round()` then counts steps; the horizon semantics match).
  virtual void step() = 0;
  virtual std::int64_t round() const = 0;

  // The protocol's own fixed-point predicate: for the MIS family this is
  // "the claimed set is an MIS", for matching "no vertex wants to move".
  virtual bool stabilized() const = 0;

  // The paper's bookkeeping aggregates for this round (B_t, A_t, I_t, V_t,
  // Gamma_t — protocols reinterpret them as documented in their class).
  virtual RoundStats snapshot() const = 0;

  // Runs until stabilized() or `max_rounds` further rounds. With
  // TraceMode::kPerRound the trace includes the initial state and every
  // round end; snapshots are O(1), so a traced round costs the same as an
  // untraced one.
  virtual RunResult run(std::int64_t max_rounds, TraceMode mode) {
    return run_loop(*this, max_rounds, mode);
  }

  // The protocol's output: the claimed MIS / matched vertices / etc.,
  // ascending. Meaningful once stabilized (and best-effort before).
  virtual std::vector<Vertex> output_set() const = 0;

  // u is covered by the protocol's stable structure (u ∈ N+(I_t) for the
  // MIS family; protocol-defined otherwise). Drives the per-vertex
  // stabilization-time tables; must be monotone once no faults are injected
  // for protocols that report such tables.
  virtual bool settled(Vertex u) const = 0;

  // Checks the stabilized output against the protocol's global validity
  // predicate (is_mis, is_maximal_matching, ...) and throws std::logic_error
  // naming the violation if it fails — the harness never reports an invalid
  // "success". Called by the harness after every stabilized trial.
  virtual void verify_output() const = 0;

  // Fault-injection hook: overwrite one vertex's raw state byte, keeping
  // the engine's counters/worklist consistent. Throws std::out_of_range /
  // std::invalid_argument on a bad vertex or state value.
  virtual void force_state(Vertex u, std::uint8_t raw_state) = 0;

  // Raw state byte of u (the engine color; decodes per protocol).
  virtual std::uint8_t raw_state(Vertex u) const = 0;

  // Number of raw state values force_state accepts.
  virtual int num_colors() const = 0;

  // Corrupts u's FULL per-vertex state (auxiliary clocks included) from 64
  // random bits — the transient-fault primitive behind
  // inject_faults(Process&, ...). Returns whether any state was actually
  // overwritten (a protocol may have nothing to corrupt at u, e.g. an
  // isolated vertex under edge-state protocols). Default: a uniformly
  // random raw color.
  virtual bool inject_fault(Vertex u, std::uint64_t w) {
    force_state(u, static_cast<std::uint8_t>(
                       w % static_cast<std::uint64_t>(num_colors())));
    return true;
  }

  // Shards the engine's rounds across the shared thread pool
  // (bit-identical trajectories at any value; 1 = sequential).
  virtual void set_shards(int shards) = 0;

  // Toggles the stable-periodic fast-forward optimization (on by default
  // where the protocol supports it; a no-op elsewhere). Purely a schedule
  // change: trajectories, aggregates, and outputs are bit-identical either
  // way, which tests/test_fast_forward.cpp pins.
  virtual void set_fast_forward(bool /*on*/) {}

 protected:
  // The one stabilization loop. `self` is the most-derived type a `final`
  // implementation passes, which devirtualizes every call in the loop.
  template <typename Self>
  static RunResult run_loop(Self& self, std::int64_t max_rounds, TraceMode mode) {
    RunResult result;
    if (mode == TraceMode::kPerRound) result.trace.push_back(self.snapshot());
    const std::int64_t start = self.round();
    while (!self.stabilized() && self.round() - start < max_rounds) {
      self.step();
      if (mode == TraceMode::kPerRound) result.trace.push_back(self.snapshot());
    }
    result.stabilized = self.stabilized();
    result.rounds = self.round() - start;
    return result;
  }
};

// What EngineProcess needs from a rule beyond ProcessRule: the paper's MIS
// bookkeeping, and the output predicate as the constant list of colors that
// claim membership (`static constexpr std::array kOutputColors`; the claimed
// set is {u : color(u) in kOutputColors}).
template <typename R>
concept MisRule = StabilityTrackingRule<R> && R::kTracksStability && requires {
  { R::kOutputColors[0] } -> std::convertible_to<typename R::Color>;
};

// The paper's aggregates of an MIS-rule engine at `round`. Every field is
// O(1): B_t sums the raw histogram over the output colors, exact under
// fast-forward because declared orbits never leave the output set, so
// tracing never forces a periodic-set sync.
template <MisRule Rule>
RoundStats mis_snapshot(const ProcessEngine<Rule>& e, std::int64_t round) {
  RoundStats s;
  s.round = round;
  for (const auto c : Rule::kOutputColors) s.black += e.raw_color_count(c);
  s.active = e.num_active();
  s.stable_black = e.num_stable_black();
  s.unstable = e.num_unstable();
  // Gamma_t exists only in the 3-color palette.
  if constexpr (std::same_as<typename Rule::Color, ColorG>)
    s.gray = e.raw_color_count(ColorG::kGray);
  return s;
}

// The vertices holding an output color, ascending.
template <MisRule Rule>
std::vector<Vertex> mis_output_set(const ProcessEngine<Rule>& e) {
  const auto& colors = e.colors();
  return e.select([&](Vertex u) {
    return std::ranges::count(Rule::kOutputColors,
                              colors[static_cast<std::size_t>(u)]) > 0;
  });
}

// Optional: per-vertex state the rule owns beyond the engine color (the
// 3-color switch level), corrupted by a transient fault from random bits.
template <typename R>
concept RuleHasFaultState = requires(R& r, Vertex u, std::uint64_t w) {
  r.inject_fault(u, w);
};

// An engine-backed MIS rule as a Process. The output is the set of vertices
// holding an output color, verified by is_mis; settled(u) is membership in
// N+(I_t) (the engine's coverage counters); a fault rewrites the color and,
// for rules with RuleHasFaultState, the rule's own per-vertex state.
template <typename Rule>
class EngineProcess final : public Process {
  static_assert(MisRule<Rule>,
                "EngineProcess<Rule>: Rule must track MIS stability and "
                "declare its output colors in kOutputColors");

 public:
  using Engine = ProcessEngine<Rule>;
  using Color = typename Engine::Color;

  // `init` must have size g.num_vertices(); the graph must outlive the
  // process. Throws std::invalid_argument otherwise.
  EngineProcess(const Graph& g, std::vector<Color> init, Rule rule)
      : engine_(g, std::move(init), std::move(rule)) {}

  const Graph& graph() const override { return engine_.graph(); }
  void step() override { engine_.step(); }
  std::int64_t round() const override { return engine_.round(); }
  bool stabilized() const override { return engine_.stabilized(); }

  RoundStats snapshot() const override {
    return mis_snapshot(engine_, engine_.round());
  }

  RunResult run(std::int64_t max_rounds, TraceMode mode) override {
    return run_loop(*this, max_rounds, mode);
  }

  std::vector<Vertex> output_set() const override { return mis_output_set(engine_); }
  bool settled(Vertex u) const override { return !engine_.unstable(u); }
  void verify_output() const override { verify_mis_output(graph(), output_set()); }

  void force_state(Vertex u, std::uint8_t raw) override {
    engine_.force_color(u, static_cast<Color>(raw));
  }
  std::uint8_t raw_state(Vertex u) const override {
    return static_cast<std::uint8_t>(engine_.color(u));
  }
  int num_colors() const override { return engine_.num_colors(); }

  bool inject_fault(Vertex u, std::uint64_t w) override {
    Process::inject_fault(u, w);
    if constexpr (RuleHasFaultState<Rule>) engine_.rule().inject_fault(u, w);
    return true;
  }

  void set_shards(int shards) override { engine_.set_shards(shards); }
  void set_fast_forward(bool on) override { engine_.set_fast_forward(on); }

  // The engine: per-vertex colors, counters and predicates, the rule, and
  // typed fault injection (force_color).
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }

 private:
  Engine engine_;
};

}  // namespace ssmis
