#include "core/verify.hpp"

#include <span>
#include <sstream>
#include <stdexcept>

namespace ssmis {

namespace {

void check_size(const Graph& g, const std::vector<char>& in_set) {
  if (in_set.size() != static_cast<std::size_t>(g.num_vertices()))
    throw std::invalid_argument("verify: membership vector size != num_vertices");
}

// One sequential Graph::RowStream pass over the rows of 0..n-1: rows that
// `wanted(u)` rejects are skipped undecoded, the rest go to `visit(u, row)`,
// which returns false to end the pass. Every full-graph verifier below is
// one such pass — O(total payload) on compressed storage, where n separate
// for_each_neighbor seeks would each pay an index lookup plus row skips.
template <typename Wanted, typename Visit>
void sweep_rows(const Graph& g, Wanted&& wanted, Visit&& visit) {
  NeighborScratch scratch;
  Graph::RowStream rows(g);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (!wanted(u)) {
      rows.skip();
      continue;
    }
    if (!visit(u, rows.next(scratch))) return;
  }
}

// First neighbor v > u of `row` (u's sorted row) with flags[v] == want, or -1.
Vertex first_above(Vertex u, std::span<const Vertex> row,
                   const std::vector<char>& flags, bool want) {
  for (const Vertex v : row)
    if (v > u && (flags[static_cast<std::size_t>(v)] != 0) == want) return v;
  return -1;
}

bool has_member(std::span<const Vertex> row, const std::vector<char>& in_set) {
  for (const Vertex v : row)
    if (in_set[static_cast<std::size_t>(v)]) return true;
  return false;
}

}  // namespace

bool is_independent_set(const Graph& g, const std::vector<char>& in_set) {
  check_size(g, in_set);
  bool ok = true;
  sweep_rows(
      g, [&](Vertex u) { return in_set[static_cast<std::size_t>(u)] != 0; },
      [&](Vertex u, std::span<const Vertex> row) {
        ok = first_above(u, row, in_set, true) < 0;
        return ok;
      });
  return ok;
}

bool is_maximal(const Graph& g, const std::vector<char>& in_set) {
  check_size(g, in_set);
  bool ok = true;
  sweep_rows(
      g, [&](Vertex u) { return in_set[static_cast<std::size_t>(u)] == 0; },
      [&](Vertex, std::span<const Vertex> row) {
        ok = has_member(row, in_set);
        return ok;
      });
  return ok;
}

bool is_mis(const Graph& g, const std::vector<char>& in_set) {
  return is_independent_set(g, in_set) && is_maximal(g, in_set);
}

std::vector<char> members_to_mask(Vertex n, const std::vector<Vertex>& members) {
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (Vertex u : members) {
    if (u < 0 || u >= n)
      throw std::out_of_range("members_to_mask: vertex out of range");
    mask[static_cast<std::size_t>(u)] = 1;
  }
  return mask;
}

bool is_independent_set(const Graph& g, const std::vector<Vertex>& members) {
  return is_independent_set(g, members_to_mask(g.num_vertices(), members));
}

bool is_maximal(const Graph& g, const std::vector<Vertex>& members) {
  return is_maximal(g, members_to_mask(g.num_vertices(), members));
}

bool is_mis(const Graph& g, const std::vector<Vertex>& members) {
  return is_mis(g, members_to_mask(g.num_vertices(), members));
}

std::optional<std::string> find_mis_violation(const Graph& g,
                                              const std::vector<char>& in_set) {
  check_size(g, in_set);
  // One pass checks both properties. Independence violations take priority
  // wherever they sit, so the pass runs on after the first uncovered
  // non-member (skipping further non-member rows) and reports that vertex
  // only if no independence violation turns up.
  std::optional<std::string> violation;
  Vertex uncovered = -1;
  sweep_rows(
      g,
      [&](Vertex u) { return in_set[static_cast<std::size_t>(u)] || uncovered < 0; },
      [&](Vertex u, std::span<const Vertex> row) {
        if (!in_set[static_cast<std::size_t>(u)]) {
          if (!has_member(row, in_set)) uncovered = u;
          return true;
        }
        const Vertex v = first_above(u, row, in_set, true);
        if (v < 0) return true;
        std::ostringstream oss;
        oss << "independence violated: members " << u << " and " << v
            << " are adjacent";
        violation = oss.str();
        return false;
      });
  if (violation || uncovered < 0) return violation;
  std::ostringstream oss;
  oss << "maximality violated: vertex " << uncovered << " has no member neighbor";
  return oss.str();
}

void verify_mis_output(const Graph& g, const std::vector<Vertex>& claimed) {
  const auto mask = members_to_mask(g.num_vertices(), claimed);
  if (const auto violation = find_mis_violation(g, mask))
    throw std::logic_error("process stabilized on a non-MIS: " + *violation);
}

bool is_matching(const Graph& g, const std::vector<Edge>& matching) {
  std::vector<char> used(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const auto& [u, v] : matching) {
    if (u < 0 || v < 0 || u >= g.num_vertices() || v >= g.num_vertices() ||
        !g.has_edge(u, v))
      return false;
    if (used[static_cast<std::size_t>(u)] || used[static_cast<std::size_t>(v)])
      return false;
    used[static_cast<std::size_t>(u)] = 1;
    used[static_cast<std::size_t>(v)] = 1;
  }
  return true;
}

bool is_maximal_matching(const Graph& g, const std::vector<Edge>& matching) {
  return !find_matching_violation(g, matching).has_value();
}

std::optional<std::string> find_matching_violation(
    const Graph& g, const std::vector<Edge>& matching) {
  std::vector<char> used(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const auto& [u, v] : matching) {
    if (u < 0 || v < 0 || u >= g.num_vertices() || v >= g.num_vertices() ||
        !g.has_edge(u, v)) {
      std::ostringstream oss;
      oss << "matching violated: {" << u << ", " << v << "} is not an edge";
      return oss.str();
    }
    for (Vertex x : {u, v}) {
      if (used[static_cast<std::size_t>(x)]) {
        std::ostringstream oss;
        oss << "matching violated: vertex " << x << " is in two matching edges";
        return oss.str();
      }
      used[static_cast<std::size_t>(x)] = 1;
    }
  }
  std::optional<std::string> violation;
  sweep_rows(
      g, [&](Vertex u) { return used[static_cast<std::size_t>(u)] == 0; },
      [&](Vertex u, std::span<const Vertex> row) {
        const Vertex v = first_above(u, row, used, false);
        if (v < 0) return true;
        std::ostringstream oss;
        oss << "maximality violated: edge {" << u << ", " << v
            << "} has both endpoints unmatched";
        violation = oss.str();
        return false;
      });
  return violation;
}

std::vector<Edge> greedy_maximal_matching(const Graph& g) {
  std::vector<char> used(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<Edge> edges;
  sweep_rows(
      g, [&](Vertex u) { return used[static_cast<std::size_t>(u)] == 0; },
      [&](Vertex u, std::span<const Vertex> row) {
        const Vertex v = first_above(u, row, used, false);
        if (v >= 0) {
          used[static_cast<std::size_t>(u)] = 1;
          used[static_cast<std::size_t>(v)] = 1;
          edges.emplace_back(u, v);
        }
        return true;
      });
  return edges;
}

std::vector<Vertex> greedy_mis(const Graph& g) {
  std::vector<char> blocked(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<Vertex> mis;
  sweep_rows(
      g, [&](Vertex u) { return blocked[static_cast<std::size_t>(u)] == 0; },
      [&](Vertex u, std::span<const Vertex> row) {
        mis.push_back(u);
        for (const Vertex v : row) blocked[static_cast<std::size_t>(v)] = 1;
        return true;
      });
  return mis;
}

}  // namespace ssmis
