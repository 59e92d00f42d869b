#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/csr_builder.hpp"
#include "graph/gnp_plan.hpp"
#include "rng/xoshiro256.hpp"

namespace ssmis {
namespace {

// The buffered reference the streaming builder must match: collect the
// edges, sort and deduplicate them, then lay out the CSR. Self-loops are
// dropped.
class GraphBuilder {
 public:
  explicit GraphBuilder(Vertex n) : n_(n) {}

  void add_edge(Vertex u, Vertex v) {
    if (u == v) return;
    edges_.emplace_back(std::min(u, v), std::max(u, v));
  }

  Graph build() && {
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
    std::vector<std::int64_t> offsets(static_cast<std::size_t>(n_) + 1, 0);
    for (const auto& [u, v] : edges_) {
      ++offsets[static_cast<std::size_t>(u) + 1];
      ++offsets[static_cast<std::size_t>(v) + 1];
    }
    for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
    std::vector<Vertex> adj(static_cast<std::size_t>(offsets.back()));
    std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [u, v] : edges_) {
      adj[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
      adj[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
    }
    for (Vertex u = 0; u < n_; ++u) {
      std::sort(adj.begin() + offsets[static_cast<std::size_t>(u)],
                adj.begin() + offsets[static_cast<std::size_t>(u) + 1]);
    }
    return Graph::from_owned_csr(n_, std::move(offsets), std::move(adj));
  }

 private:
  Vertex n_;
  std::vector<Edge> edges_;
};

// Replays a fixed edge list (the canonical replayable source).
auto list_source(const std::vector<Edge>& edges) {
  return [&edges](auto&& emit) {
    for (const auto& [u, v] : edges) emit(u, v);
  };
}

TEST(CsrBuilder, EmptyAndEdgeless) {
  const Graph empty = CsrBuilder::from_source(0, [](auto&&) {});
  EXPECT_EQ(empty.num_vertices(), 0);
  EXPECT_EQ(empty.num_edges(), 0);

  const Graph isolated = CsrBuilder::from_source(5, [](auto&&) {});
  EXPECT_EQ(isolated.num_vertices(), 5);
  EXPECT_EQ(isolated.num_edges(), 0);
  for (Vertex u = 0; u < 5; ++u) EXPECT_EQ(isolated.degree(u), 0);
}

TEST(CsrBuilder, NegativeVertexCountThrows) {
  EXPECT_THROW(CsrBuilder::from_source(-1, [](auto&&) {}), std::invalid_argument);
}

TEST(CsrBuilder, BasicConstruction) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const Graph g = CsrBuilder::from_source(4, list_source(edges));
  EXPECT_EQ(g.num_edges(), 4);
  for (Vertex u = 0; u < 4; ++u) EXPECT_EQ(g.degree(u), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(CsrBuilder, DropsSelfLoopsAndDeduplicates) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}};
  const Graph g = CsrBuilder::from_source(3, list_source(edges));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(CsrBuilder, OutOfRangeThrows) {
  const std::vector<Edge> bad = {{0, 3}};
  EXPECT_THROW(CsrBuilder::from_source(3, list_source(bad)), std::invalid_argument);
  const std::vector<Edge> negative = {{-1, 0}};
  EXPECT_THROW(CsrBuilder::from_source(3, list_source(negative)),
               std::invalid_argument);
}

TEST(CsrBuilder, NonReplayableSourceThrows) {
  // Emits one edge on the first pass, two on the second.
  int pass = 0;
  auto broken = [&pass](auto&& emit) {
    ++pass;
    emit(0, 1);
    if (pass == 2) emit(1, 2);
  };
  EXPECT_THROW(CsrBuilder::from_source(3, broken), std::logic_error);
}

TEST(CsrBuilder, DivergentEqualCountSourceThrows) {
  // Same edge COUNT but different edges per pass: the multiset stream hash
  // must catch the divergence rather than hand back a silently corrupt CSR.
  int pass = 0;
  auto broken = [&pass](auto&& emit) {
    ++pass;
    emit(0, 1);
    if (pass == 1)
      emit(0, 2);
    else
      emit(2, 3);
  };
  EXPECT_THROW(CsrBuilder::from_source(4, broken), std::logic_error);
}

TEST(CsrBuilder, EndpointOrientationIsIrrelevantAcrossPasses) {
  // Pass 2 may emit the same undirected edges with flipped endpoints; the
  // multiset hash and placement are orientation-independent.
  int pass = 0;
  auto flipping = [&pass](auto&& emit) {
    ++pass;
    if (pass == 1) {
      emit(0, 1);
      emit(2, 3);
    } else {
      emit(1, 0);
      emit(3, 2);
    }
  };
  const Graph g = CsrBuilder::from_source(4, flipping);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(CsrBuilder, MatchesGraphBuilderOnRandomMultisets) {
  // Random edge multisets with duplicates, reversed duplicates, and
  // self-loops: the streaming two-pass build must produce a Graph equal to
  // the buffered sort/dedup build.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Xoshiro256 rng(seed);
    const Vertex n = 2 + static_cast<Vertex>(rng.next_below(60));
    const int count = static_cast<int>(rng.next_below(300));
    std::vector<Edge> edges;
    for (int i = 0; i < count; ++i) {
      const auto u = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto v = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
      edges.emplace_back(u, v);
      if (rng.next_bool()) edges.emplace_back(v, u);  // reversed duplicate
    }
    GraphBuilder b(n);
    for (const auto& [u, v] : edges) b.add_edge(u, v);
    const Graph buffered = std::move(b).build();
    const Graph streamed = CsrBuilder::from_source(n, list_source(edges));
    EXPECT_EQ(buffered, streamed) << "seed " << seed << " n " << n;
  }
}

TEST(CsrBuilder, RowsSortedDeduplicated) {
  const std::vector<Edge> edges = {{2, 4}, {2, 0}, {2, 3}, {2, 1}, {4, 2}, {0, 2}};
  const Graph g = CsrBuilder::from_source(5, list_source(edges));
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
}

// --- Segmented sources -------------------------------------------------------

// Replays `edges` cut into `k` contiguous segments.
auto segmented_source(const std::vector<Edge>& edges, int k) {
  return [&edges, k](int s, auto&& emit) {
    const std::size_t size = edges.size();
    const std::size_t kk = static_cast<std::size_t>(k);
    const std::size_t su = static_cast<std::size_t>(s);
    for (std::size_t i = size * su / kk; i < size * (su + 1) / kk; ++i)
      emit(edges[i].first, edges[i].second);
  };
}

std::vector<Edge> random_multiset(std::uint64_t seed, Vertex n, int count) {
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  for (int i = 0; i < count; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    edges.emplace_back(u, v);  // self-loops included when u == v
    if (rng.next_bool()) edges.emplace_back(v, u);  // reversed duplicate
    if (rng.next_below(8) == 0) edges.emplace_back(u, u);  // explicit self-loop
  }
  return edges;
}

TEST(CsrBuilderSegmented, MatchesOneSegmentAndGraphBuilder) {
  // Any split of the stream into segments builds the same Graph — plain and
  // compressed — as the one-segment build and the buffered GraphBuilder.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Xoshiro256 rng(seed + 100);
    const Vertex n = 2 + static_cast<Vertex>(rng.next_below(400));
    const std::vector<Edge> edges =
        random_multiset(seed, n, static_cast<int>(rng.next_below(3000)));
    GraphBuilder b(n);
    for (const auto& [u, v] : edges) b.add_edge(u, v);
    const Graph buffered = std::move(b).build();
    const Graph one = CsrBuilder::from_source(n, list_source(edges));
    ASSERT_EQ(one, buffered) << "seed " << seed;
    const Graph compressed = Graph::compress(buffered);
    for (const int k : {1, 2, 7, 64}) {
      EXPECT_EQ(CsrBuilder::from_source(n, k, segmented_source(edges, k)), buffered)
          << "seed " << seed << " k " << k;
      // Default chunking (one chunk) and a tiny chunk cap (many chunks).
      for (const std::int64_t chunk : {CsrBuilder::kDefaultChunkEndpoints, std::int64_t{64}}) {
        const Graph c =
            CsrBuilder::from_source_compressed(n, k, segmented_source(edges, k), chunk);
        EXPECT_TRUE(c.is_compressed());
        EXPECT_EQ(c, buffered) << "seed " << seed << " k " << k << " chunk " << chunk;
        EXPECT_TRUE(std::equal(c.compressed_payload().begin(), c.compressed_payload().end(),
                               compressed.compressed_payload().begin(),
                               compressed.compressed_payload().end()));
      }
    }
  }
}

TEST(CsrBuilderSegmented, RejectsZeroSegments) {
  auto none = [](int, auto&&) {};
  EXPECT_THROW(CsrBuilder::from_source(3, 0, none), std::invalid_argument);
  EXPECT_THROW(CsrBuilder::from_source_compressed(3, 0, none), std::invalid_argument);
}

// Seven segments over a fixed edge list; segment 3 changes after its first
// replay: `extra` adds an edge, otherwise one edge is swapped for another
// (same count). Segments replay concurrently, so the per-segment call
// counters are atomics.
struct DivergentSource {
  const std::vector<Edge>* edges;
  bool extra;
  std::vector<std::atomic<int>>* calls;
  template <typename Emit>
  void operator()(int s, Emit&& emit) const {
    const int call = (*calls)[static_cast<std::size_t>(s)].fetch_add(1);
    segmented_source(*edges, 7)(s, emit);
    if (s != 3) return;
    if (call == 0 || extra) emit(2, 3);
    if (call > 0) emit(extra ? 0 : 1, extra ? 1 : 2);
  }
};

TEST(CsrBuilderSegmented, DivergentSegmentThrows) {
  const std::vector<Edge> edges = random_multiset(9, 50, 400);
  for (const bool extra : {false, true}) {
    {
      std::vector<std::atomic<int>> calls(7);
      EXPECT_THROW(CsrBuilder::from_source(50, 7, DivergentSource{&edges, extra, &calls}),
                   std::logic_error)
          << "extra " << extra;
    }
    {
      std::vector<std::atomic<int>> calls(7);
      EXPECT_THROW(CsrBuilder::from_source_compressed(
                       50, 7, DivergentSource{&edges, extra, &calls}),
                   std::logic_error)
          << "extra " << extra;
    }
  }
}

TEST(CsrBuilderSegmented, OutOfRangeInLastSegmentThrowsThroughPool) {
  std::vector<Edge> edges = random_multiset(4, 30, 500);
  edges.emplace_back(29, 30);  // the last segment's last edge
  for (const int k : {2, 7, 64}) {
    EXPECT_THROW(CsrBuilder::from_source(30, k, segmented_source(edges, k)),
                 std::invalid_argument)
        << "k " << k;
    EXPECT_THROW(CsrBuilder::from_source_compressed(30, k, segmented_source(edges, k)),
                 std::invalid_argument)
        << "k " << k;
  }
}

// --- G(n,p) plan ------------------------------------------------------------

void expect_pair(std::int64_t index, std::int64_t u, std::int64_t v) {
  const gen::PairCursor c = gen::pair_at(index);
  EXPECT_EQ(c.u, u) << "index " << index;
  EXPECT_EQ(c.v, v) << "index " << index;
  EXPECT_EQ(gen::pair_index(c), index);
}

TEST(GnpPlan, PairIndexConversionAtRowBoundaries) {
  expect_pair(-1, -1, 1);  // the stream's start
  expect_pair(0, 0, 1);
  // Rows v up to n - 1 = 2^31 - 2: the first, last, and (from the row
  // before) last-but-one pair of each. Past 2^53 the double root is inexact;
  // rows around 2^26.5 are where v(v-1)/2 crosses 2^52.
  std::vector<std::int64_t> rows = {2, 3, 4, 5, 1000, 65536, 94906265, 94906266,
                                    94906267, (std::int64_t{1} << 30) + 7};
  Xoshiro256 rng(5);
  for (int i = 0; i < 2000; ++i)
    rows.push_back(2 + static_cast<std::int64_t>(rng.next_below((std::uint64_t{1} << 31) - 4)));
  for (std::int64_t v = (std::int64_t{1} << 31) - 40; v <= (std::int64_t{1} << 31) - 2; ++v)
    rows.push_back(v);
  for (const std::int64_t v : rows) {
    const std::int64_t first = v * (v - 1) / 2;
    expect_pair(first - 1, v - 2, v - 1);
    expect_pair(first, 0, v);
    expect_pair(first + v - 1, v - 1, v);
  }
  // The last pair of G(n, p) at the largest n: N - 1 = (n-2, n-1).
  const std::int64_t n = (std::int64_t{1} << 31) - 1;
  expect_pair(n * (n - 1) / 2 - 1, n - 2, n - 1);
}

TEST(GnpPlan, SkipCapSaturatesWithoutOverflow) {
  // With p this small every skip hits the 1e18 cap, so a segment's span
  // sum would overflow int64 after ten draws without saturation (UBSan
  // reports the overflow). The first draw leaves the pair range: one
  // segment, zero edges.
  for (const double p : {1e-300, 5e-324}) {
    const Vertex n = Vertex{1} << 24;
    const gen::GnpPlan plan(n, p, 3);
    EXPECT_EQ(plan.segments(), 1) << p;
    std::int64_t edges = 0;
    plan.replay(0, [&](Vertex, Vertex) { ++edges; });
    EXPECT_EQ(edges, 0) << p;
  }
  // At the largest n the capped skips still land inside the 2.3e18 pairs
  // twice; the plan must still end after one segment.
  EXPECT_EQ(gen::GnpPlan((Vertex{1} << 30) + ((Vertex{1} << 30) - 1), 1e-300, 3).segments(),
            1);
}

TEST(GraphHandle, CopiesShareStorageAndCompareEqual) {
  const Graph a = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph b = a;  // shallow handle copy
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.neighbors(1).data(), b.neighbors(1).data());  // shared CSR arrays
  EXPECT_FALSE(a.is_mapped());
}

}  // namespace
}  // namespace ssmis
