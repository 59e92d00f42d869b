#include <gtest/gtest.h>

#include <random>

#include "core/verify.hpp"
#include "graph/generators.hpp"

namespace ssmis {
namespace {

TEST(Verify, IndependenceBasic) {
  const Graph g = gen::path(4);  // 0-1-2-3
  EXPECT_TRUE(is_independent_set(g, std::vector<Vertex>{0, 2}));
  EXPECT_TRUE(is_independent_set(g, std::vector<Vertex>{0, 3}));
  EXPECT_FALSE(is_independent_set(g, std::vector<Vertex>{0, 1}));
  EXPECT_TRUE(is_independent_set(g, std::vector<Vertex>{}));
}

TEST(Verify, MaximalityBasic) {
  const Graph g = gen::path(4);
  EXPECT_TRUE(is_maximal(g, std::vector<Vertex>{0, 2}));
  EXPECT_TRUE(is_maximal(g, std::vector<Vertex>{1, 3}));
  EXPECT_FALSE(is_maximal(g, std::vector<Vertex>{0}));  // 2, 3 uncovered
  EXPECT_FALSE(is_maximal(g, std::vector<Vertex>{}));
}

TEST(Verify, MisOnPath) {
  const Graph g = gen::path(4);
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{0, 2}));
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{1, 3}));
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{0, 3}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{0, 1, 3}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{0}));
}

TEST(Verify, MisOnClique) {
  const Graph g = gen::complete(5);
  for (Vertex u = 0; u < 5; ++u)
    EXPECT_TRUE(is_mis(g, std::vector<Vertex>{u}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{0, 1}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{}));
}

TEST(Verify, EmptyGraphEmptySetIsMis) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{}));
}

TEST(Verify, IsolatedVerticesMustAllBeMembers) {
  const Graph g = Graph::from_edges(3, {});
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{0, 1, 2}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{0, 1}));
}

TEST(Verify, MaskSizeMismatchThrows) {
  const Graph g = gen::path(3);
  EXPECT_THROW(is_independent_set(g, std::vector<char>{1, 0}), std::invalid_argument);
  EXPECT_THROW(is_maximal(g, std::vector<char>{1, 0, 0, 0}), std::invalid_argument);
}

TEST(Verify, MemberOutOfRangeThrows) {
  const Graph g = gen::path(3);
  EXPECT_THROW(is_mis(g, std::vector<Vertex>{5}), std::out_of_range);
}

TEST(Verify, FindViolationDescribesIndependence) {
  const Graph g = gen::path(3);
  const auto v = find_mis_violation(g, members_to_mask(3, {0, 1}));
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("independence"), std::string::npos);
}

TEST(Verify, FindViolationDescribesMaximality) {
  const Graph g = gen::path(3);
  const auto v = find_mis_violation(g, members_to_mask(3, {0}));
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("maximality"), std::string::npos);
}

TEST(Verify, FindViolationNulloptForMis) {
  const Graph g = gen::path(3);
  EXPECT_FALSE(find_mis_violation(g, members_to_mask(3, {1})).has_value());
}

TEST(Verify, GreedyMisIsAlwaysMis) {
  const std::vector<Graph> graphs = {
      gen::complete(10),          gen::path(17),
      gen::cycle(12),             gen::star(9),
      gen::gnp(100, 0.1, 1),      gen::random_tree(64, 2),
      gen::grid(6, 7),            gen::disjoint_cliques(4, 6),
      Graph::from_edges(5, {}),
  };
  for (const Graph& g : graphs) {
    EXPECT_TRUE(is_mis(g, greedy_mis(g))) << g.summary();
  }
}

TEST(Verify, GreedyMisOnCliqueIsSingleton) {
  EXPECT_EQ(greedy_mis(gen::complete(7)).size(), 1u);
}

TEST(Verify, GreedyMisOnStarIsHubOrLeaves) {
  // Greedy from vertex 0 (the hub) picks the hub only.
  EXPECT_EQ(greedy_mis(gen::star(10)), (std::vector<Vertex>{0}));
}

// The verifiers are single RowStream passes; their verdicts and messages
// must not depend on the storage mode they sweep.
TEST(Verify, ViolationMessagesIdenticalAcrossStorageModes) {
  const Graph plain = gen::gnp(400, 0.02, 5);
  const Graph comp = Graph::compress(plain);
  ASSERT_TRUE(comp.is_compressed());
  const Vertex n = plain.num_vertices();

  std::vector<std::vector<char>> masks;
  masks.push_back(members_to_mask(n, greedy_mis(plain)));  // a valid MIS
  masks.emplace_back(static_cast<std::size_t>(n), 0);      // empty set
  std::mt19937 rng(11);
  for (int i = 0; i < 8; ++i) {
    std::vector<char> mask(static_cast<std::size_t>(n));
    for (char& bit : mask) bit = static_cast<char>(rng() % 4 == 0);
    masks.push_back(mask);
  }
  // Vertex 0 uncovered (dropped from the greedy MIS, which always holds it)
  // and an independence violation higher up: independence is reported.
  std::vector<char> both = masks.front();
  both[0] = 0;
  Vertex extra = n - 1;
  while (both[static_cast<std::size_t>(extra)]) --extra;
  both[static_cast<std::size_t>(extra)] = 1;
  masks.push_back(both);

  for (std::size_t i = 0; i < masks.size(); ++i) {
    const auto want = find_mis_violation(plain, masks[i]);
    EXPECT_EQ(find_mis_violation(comp, masks[i]), want) << "mask " << i;
    EXPECT_EQ(is_mis(comp, masks[i]), !want.has_value()) << "mask " << i;
  }
  EXPECT_FALSE(find_mis_violation(comp, masks.front()).has_value());
  const auto reported = find_mis_violation(comp, both);
  ASSERT_TRUE(reported.has_value());
  EXPECT_EQ(reported->rfind("independence violated", 0), 0u) << *reported;
  EXPECT_EQ(greedy_mis(comp), greedy_mis(plain));

  const std::vector<Edge> greedy = greedy_maximal_matching(plain);
  ASSERT_FALSE(greedy.empty());
  EXPECT_EQ(greedy_maximal_matching(comp), greedy);
  std::vector<std::vector<Edge>> matchings = {greedy, {}};
  matchings.emplace_back(greedy.begin(), greedy.end() - 1);  // not maximal
  matchings.push_back(greedy);
  matchings.back().push_back(greedy.front());                // vertex reused
  for (std::size_t i = 0; i < matchings.size(); ++i)
    EXPECT_EQ(find_matching_violation(comp, matchings[i]),
              find_matching_violation(plain, matchings[i]))
        << "matching " << i;
}

TEST(Verify, IndependenceReportedBeforeLowerMaximalityViolation) {
  // Path 0-1-2-3-4-5 with members {3, 4}: vertex 0 is uncovered, but the
  // independence violation at 3-4 is the one reported, on either storage.
  const Graph plain = gen::path(6);
  const auto mask = members_to_mask(6, {3, 4});
  for (const Graph& g : {plain, Graph::compress(plain)}) {
    EXPECT_EQ(find_mis_violation(g, mask),
              "independence violated: members 3 and 4 are adjacent")
        << g.storage_mode();
    EXPECT_FALSE(is_independent_set(g, mask));
    EXPECT_FALSE(is_maximal(g, mask));
  }
  EXPECT_EQ(find_mis_violation(plain, members_to_mask(6, {3})),
            "maximality violated: vertex 0 has no member neighbor");
}

}  // namespace
}  // namespace ssmis
