// Maximal matching: a few-state self-stabilizing EDGE-symmetry-breaking
// protocol — the first registry workload that is not a vertex-MIS rule,
// cashing in the ROADMAP's "a new protocol costs one Rule type".
//
// Construction: a maximal matching of G is exactly a maximal independent
// set of the line graph L(G) (vertices of L(G) = edges of G, adjacent iff
// the edges share an endpoint). The protocol therefore IS the paper's
// 2-state process (Definition 4), run with one binary state per EDGE: an
// edge is "claimed" or "free"; a claimed edge sharing an endpoint with
// another claimed edge is in conflict and resamples, a free edge none of
// whose touching edges are claimed is addable and resamples. Stabilization,
// convergence-from-anywhere, and the active-set engine costs are all
// inherited verbatim from the 2-state analysis — zero new scheduling code,
// zero new transition code (it is ProcessEngine<TwoStateRule> over L(G)).
//
// Why edge states are necessary, not a convenience: with per-VERTEX states
// and neighbor counts alone, a matched vertex cannot distinguish its
// partner from an adjacent vertex matched elsewhere — on C_5 no
// count-based vertex encoding of a maximal matching even exists (any
// matched-vertex set of a maximal matching there contains an endpoint with
// two matched neighbors). The communication reading of edge states: one
// claim bit relayed per incident edge, the port-numbering analogue of the
// paper's beeping implementation.
//
// Output: the claimed edges, decoded back to vertex pairs; verified by
// verify.hpp's is_maximal_matching (pairwise-disjoint edges, every graph
// edge blocked by one).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "core/init.hpp"
#include "core/process.hpp"
#include "core/two_state.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

// The line graph L(g): one vertex per edge of g (ids = positions in
// g.edge_list(), i.e. ascending (u, v) order), adjacent iff the edges share
// an endpoint. O(sum_v deg(v)^2) construction.
Graph line_graph(const Graph& g);

// Self-stabilizing maximal matching as a Process. The process's graph() is
// the ORIGINAL graph; round, stabilization, and the snapshot aggregates are
// those of the 2-state engine on L(g), so they count LINE vertices, i.e.
// EDGES of g: black = claimed edges, active = edges that resample next
// round, stable_black = claims with no claimed contender, unstable = edges
// not yet covered by a stable claim. output_set() is the matched vertices.
class MatchingProcess final : public Process {
 public:
  using Engine = ProcessEngine<TwoStateRule>;

  // Starts the 2-state process on L(g) from `pattern` edge states (drawn
  // over the line graph, so e.g. high-degree-black marks high-conflict
  // edges). The graph must outlive the process.
  MatchingProcess(const Graph& g, InitPattern pattern, const CoinOracle& coins);

  const Graph& graph() const override { return *graph_; }
  void step() override { engine_.step(); }
  std::int64_t round() const override { return engine_.round(); }
  // Stabilized ⟺ the claimed edge set is an MIS of L(g) ⟺ a maximal
  // matching of g.
  bool stabilized() const override { return engine_.stabilized(); }
  RoundStats snapshot() const override {
    return mis_snapshot(engine_, engine_.round());
  }
  RunResult run(std::int64_t max_rounds, TraceMode mode) override {
    return run_loop(*this, max_rounds, mode);
  }

  // Matched vertices, ascending.
  std::vector<Vertex> output_set() const override;
  // u is settled once every incident edge is covered by a stable claim
  // (isolated vertices: immediately) — monotone, like N+(I_t) coverage.
  bool settled(Vertex u) const override;
  void verify_output() const override;

  // The states live on edges: force_state(u, bit) sets every incident
  // edge's claim (the node-crash reading); raw_state(u) is whether u is
  // matched; inject_fault corrupts ONE incident edge chosen by the random
  // word.
  void force_state(Vertex u, std::uint8_t raw) override;
  std::uint8_t raw_state(Vertex u) const override { return matched(u) ? 1 : 0; }
  int num_colors() const override { return 2; }
  bool inject_fault(Vertex u, std::uint64_t w) override;

  // Shards the line engine's rounds (bit-identical at any value).
  void set_shards(int shards) override { engine_.set_shards(shards); }

  // Ascending edge ids incident to u (a view into the internal CSR).
  std::span<const Vertex> incident_edges(Vertex u) const {
    const auto begin = incident_offsets_[static_cast<std::size_t>(u)];
    const auto end = incident_offsets_[static_cast<std::size_t>(u) + 1];
    return {incident_ids_.data() + begin, static_cast<std::size_t>(end - begin)};
  }
  bool matched(Vertex u) const;
  // The matching: claimed edges, ascending by edge id.
  std::vector<Edge> matching() const;

  // The 2-state engine over L(g): edge claims are its colors; fault hook
  // force_color(edge_id, c) overwrites one edge's claim in O(deg_L(edge)).
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }

 private:
  bool claimed(Vertex edge_id) const { return is_black(engine_.color(edge_id)); }

  const Graph* graph_;
  std::vector<Edge> edges_;                     // edge_id -> (u, v), u < v
  std::vector<std::int64_t> incident_offsets_;  // CSR over incident edge ids
  std::vector<Vertex> incident_ids_;
  // Heap-allocated so the engine's graph pointer survives moves (declared
  // after edges_ and before the engine: construction reads the one and
  // feeds the other).
  std::unique_ptr<Graph> line_graph_;
  Engine engine_;
};

}  // namespace ssmis
