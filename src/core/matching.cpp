#include "core/matching.hpp"

#include <stdexcept>
#include <utility>

#include "core/process.hpp"
#include "core/verify.hpp"
#include "graph/csr_builder.hpp"
#include "harness/registry.hpp"
#include "support/narrow.hpp"

namespace ssmis {

namespace {

// CSR of incident edge ids over the vertices of g: ids grouped by endpoint,
// ascending within each row (edges_ is in ascending (u, v) order and each
// id is placed at both endpoints in id order). Shared by line_graph's edge
// stream and MatchingProcess's per-vertex settled/matched queries.
struct IncidentCsr {
  std::vector<std::int64_t> offsets;  // n + 1
  std::vector<Vertex> ids;            // 2m edge ids
};

IncidentCsr incident_edge_csr(const Graph& g, const std::vector<Edge>& edges) {
  IncidentCsr csr;
  csr.offsets.assign(static_cast<std::size_t>(g.num_vertices()) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++csr.offsets[static_cast<std::size_t>(u) + 1];
    ++csr.offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < csr.offsets.size(); ++i)
    csr.offsets[i] += csr.offsets[i - 1];
  csr.ids.resize(edges.size() * 2);
  std::vector<std::int64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const auto place = [&](Vertex endpoint) {
      csr.ids[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(endpoint)]++)] = static_cast<Vertex>(k);
    };
    place(edges[k].first);
    place(edges[k].second);
  }
  return csr;
}

// Every pair of edges meeting at one vertex is a line edge (a pair can
// meet at only one vertex in a simple graph, so no duplicates), and the
// per-vertex cliques replay deterministically — stream them through the
// two-pass CsrBuilder instead of buffering the sum-deg^2 edge list.
Graph build_line_graph(const Graph& g, const std::vector<Edge>& edges) {
  const IncidentCsr inc = incident_edge_csr(g, edges);
  return CsrBuilder::from_source(
      narrow_cast<Vertex>(edges.size()), [&](auto&& emit) {
        for (Vertex w = 0; w < g.num_vertices(); ++w) {
          const auto begin = inc.offsets[static_cast<std::size_t>(w)];
          const auto end = inc.offsets[static_cast<std::size_t>(w) + 1];
          for (auto i = begin; i < end; ++i) {
            for (auto j = i + 1; j < end; ++j)
              emit(inc.ids[static_cast<std::size_t>(i)],
                   inc.ids[static_cast<std::size_t>(j)]);
          }
        }
      });
}

}  // namespace

Graph line_graph(const Graph& g) { return build_line_graph(g, g.edge_list()); }

MatchingProcess::MatchingProcess(const Graph& g, InitPattern pattern,
                                 const CoinOracle& coins)
    : graph_(&g),
      edges_(g.edge_list()),
      line_graph_(std::make_unique<Graph>(build_line_graph(g, edges_))),
      engine_(*line_graph_, make_init2(*line_graph_, pattern, coins),
              TwoStateRule(coins)) {
  IncidentCsr inc = incident_edge_csr(g, edges_);
  incident_offsets_ = std::move(inc.offsets);
  incident_ids_ = std::move(inc.ids);
}

bool MatchingProcess::matched(Vertex u) const {
  for (Vertex k : incident_edges(u))
    if (claimed(k)) return true;
  return false;
}

std::vector<Edge> MatchingProcess::matching() const {
  const std::vector<Color2>& claims = engine_.colors();
  std::vector<Edge> out;
  for (std::size_t k = 0; k < edges_.size(); ++k)
    if (is_black(claims[k])) out.push_back(edges_[k]);
  return out;
}

std::vector<Vertex> MatchingProcess::output_set() const {
  std::vector<Vertex> out;
  for (Vertex u = 0; u < graph_->num_vertices(); ++u)
    if (matched(u)) out.push_back(u);
  return out;
}

bool MatchingProcess::settled(Vertex u) const {
  for (Vertex k : incident_edges(u)) {
    if (engine_.unstable(k)) return false;
  }
  return true;  // isolated vertices settle at round 0
}

void MatchingProcess::verify_output() const {
  if (const auto violation = find_matching_violation(graph(), matching()))
    throw std::logic_error("process stabilized on an invalid matching: " +
                           *violation);
}

void MatchingProcess::force_state(Vertex u, std::uint8_t raw) {
  if (static_cast<int>(raw) >= 2)
    throw std::invalid_argument("matching: force_state takes 0 (free) or 1");
  for (Vertex k : incident_edges(u))
    engine_.force_color(k, static_cast<Color2>(raw));
}

bool MatchingProcess::inject_fault(Vertex u, std::uint64_t w) {
  const auto incident = incident_edges(u);
  if (incident.empty()) return false;  // isolated: nothing to corrupt
  const Vertex k = incident[static_cast<std::size_t>(
      w % static_cast<std::uint64_t>(incident.size()))];
  engine_.force_color(k, ((w >> 32) & 1) != 0 ? Color2::kBlack : Color2::kWhite);
  return true;
}

namespace {

const ProtocolRegistrar kMatchingProtocol{
    "matching",
    "self-stabilizing maximal matching = the 2-state process on the line "
    "graph (one claim bit per EDGE; conflicting claims resample, addable "
    "edges resample); output decoded to vertex pairs and verified by "
    "is_maximal_matching",
    {},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      return std::make_unique<MatchingProcess>(g, params.init, coins);
    }};

}  // namespace

}  // namespace ssmis
