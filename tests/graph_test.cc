#include <gtest/gtest.h>
#include <algorithm>
#include <cmath>

#include <set>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "graph/graph.h"
#include "graph/khop.h"
#include "graph/sampling.h"
#include "omp_team.h"

namespace g = ses::graph;

namespace {

g::Graph MakePath(int64_t n) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return g::Graph::FromUndirectedEdges(n, edges);
}

TEST(GraphTest, DedupsAndDropsSelfLoops) {
  g::Graph graph = g::Graph::FromUndirectedEdges(
      4, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {2, 3}});
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(3, 2));
  EXPECT_FALSE(graph.HasEdge(2, 2));
  EXPECT_FALSE(graph.HasEdge(0, 3));
}

TEST(GraphTest, NeighborsSortedAndSymmetric) {
  g::Graph graph = g::Graph::FromUndirectedEdges(5, {{3, 1}, {3, 0}, {3, 4}});
  auto nbrs = graph.Neighbors(3);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 4);
  EXPECT_EQ(graph.Degree(0), 1);
  EXPECT_EQ(graph.Neighbors(0)[0], 3);
}

TEST(GraphTest, DirectedEdgesLayout) {
  g::Graph graph = g::Graph::FromUndirectedEdges(3, {{0, 1}, {1, 2}});
  auto directed = graph.DirectedEdges(/*add_self_loops=*/true);
  // 2 undirected edges -> 4 directed + 3 self-loops.
  EXPECT_EQ(directed->size(), 7);
  // Both orientations of undirected edge i sit at 2i, 2i+1.
  EXPECT_EQ(directed->src[0], graph.edges()[0].first);
  EXPECT_EQ(directed->dst[0], graph.edges()[0].second);
  EXPECT_EQ(directed->src[1], graph.edges()[0].second);
  EXPECT_EQ(directed->dst[1], graph.edges()[0].first);
  // Self-loops at the tail.
  for (int64_t e = 4; e < 7; ++e) EXPECT_EQ(directed->src[e], directed->dst[e]);
}

TEST(GraphTest, GcnWeightsSymmetricNormalization) {
  g::Graph graph = MakePath(3);
  auto edges = graph.DirectedEdges(true);
  auto weights = g::Graph::GcnNormWeights(*edges);
  // Node 1 has degree 3 (2 neighbors + self-loop); ends have degree 2.
  for (int64_t e = 0; e < edges->size(); ++e) {
    const int64_t du = edges->src[e] == 1 ? 3 : 2;
    const int64_t dv = edges->dst[e] == 1 ? 3 : 2;
    EXPECT_NEAR(weights[e], 1.0 / std::sqrt(double(du * dv)), 1e-6);
  }
}

TEST(GraphTest, JaccardSimilarity) {
  // 0 and 1 share neighbor 2; 0 also has 3, 1 also has 4.
  g::Graph graph = g::Graph::FromUndirectedEdges(
      5, {{0, 2}, {0, 3}, {1, 2}, {1, 4}});
  EXPECT_NEAR(graph.NeighborhoodJaccard(0, 1), 1.0 / 3.0, 1e-6);
  EXPECT_FLOAT_EQ(graph.NeighborhoodJaccard(3, 4), 0.0f);
}

TEST(GraphTest, WithExtraEdges) {
  g::Graph graph = MakePath(4);
  g::Graph bigger = graph.WithExtraEdges({{0, 3}});
  EXPECT_EQ(bigger.num_edges(), graph.num_edges() + 1);
  EXPECT_TRUE(bigger.HasEdge(0, 3));
}

TEST(EgoNetTest, ContainsExactlyTheBall) {
  g::Graph graph = MakePath(7);
  g::Subgraph sub = g::ExtractEgoNet(graph, 3, 2);
  std::set<int64_t> expect{1, 2, 3, 4, 5};
  EXPECT_EQ(std::set<int64_t>(sub.nodes.begin(), sub.nodes.end()), expect);
  EXPECT_EQ(sub.nodes[static_cast<size_t>(sub.center_local)], 3);
  // Induced path of 5 nodes has 4 edges.
  EXPECT_EQ(sub.graph.num_edges(), 4);
}

TEST(EgoNetTest, LocalIdsConsistent) {
  ses::util::Rng rng(3);
  g::Graph graph = ses::data::MakeBarabasiAlbert(80, 3, &rng);
  g::Subgraph sub = g::ExtractEgoNet(graph, 10, 2);
  for (size_t i = 0; i < sub.nodes.size(); ++i)
    EXPECT_EQ(sub.local_of[static_cast<size_t>(sub.nodes[i])],
              static_cast<int64_t>(i));
  // Every subgraph edge exists in the parent graph.
  for (auto [lu, lv] : sub.graph.edges())
    EXPECT_TRUE(graph.HasEdge(sub.nodes[static_cast<size_t>(lu)],
                              sub.nodes[static_cast<size_t>(lv)]));
}

// --- k-hop properties, parameterized over k ---------------------------------

class KHopTest : public ::testing::TestWithParam<int> {};

TEST_P(KHopTest, PathGraphBallSizes) {
  const ses::test::ScopedOmpTeam team(4);
  const int k = GetParam();
  g::Graph graph = MakePath(11);
  g::KHopAdjacency khop(graph, k);
  // Middle node 5 reaches min(k, 5) in each direction.
  EXPECT_EQ(khop.Neighbors(5).size(), static_cast<size_t>(2 * k));
  // End node 0 reaches k nodes.
  EXPECT_EQ(khop.Neighbors(0).size(), static_cast<size_t>(k));
}

TEST_P(KHopTest, ContainsOneHopNeighbors) {
  const ses::test::ScopedOmpTeam team(4);
  const int k = GetParam();
  ses::util::Rng rng(4);
  g::Graph graph = ses::data::MakeBarabasiAlbert(60, 3, &rng);
  g::KHopAdjacency khop(graph, k);
  for (int64_t v = 0; v < graph.num_nodes(); ++v)
    for (int64_t nbr : graph.Neighbors(v))
      EXPECT_TRUE(khop.Contains(v, nbr));
}

TEST_P(KHopTest, NeverContainsSelf) {
  const ses::test::ScopedOmpTeam team(4);
  const int k = GetParam();
  ses::util::Rng rng(5);
  g::Graph graph = ses::data::MakeBarabasiAlbert(40, 2, &rng);
  g::KHopAdjacency khop(graph, k);
  for (int64_t v = 0; v < graph.num_nodes(); ++v)
    EXPECT_FALSE(khop.Contains(v, v));
}

TEST_P(KHopTest, PairEdgesAlignWithNeighborLists) {
  const ses::test::ScopedOmpTeam team(4);
  const int k = GetParam();
  ses::util::Rng rng(6);
  g::Graph graph = ses::data::MakeBarabasiAlbert(50, 2, &rng);
  g::KHopAdjacency khop(graph, k);
  auto pairs = khop.PairEdges();
  EXPECT_EQ(pairs->size(), khop.num_pairs());
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    auto nbrs = khop.Neighbors(v);
    const int64_t offset = khop.PairOffset(v);
    for (size_t j = 0; j < nbrs.size(); ++j) {
      EXPECT_EQ(pairs->src[static_cast<size_t>(offset) + j], v);
      EXPECT_EQ(pairs->dst[static_cast<size_t>(offset) + j], nbrs[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Hops, KHopTest, ::testing::Values(1, 2, 3));

TEST(KHopTest, MonotoneInK) {
  const ses::test::ScopedOmpTeam team(4);
  ses::util::Rng rng(7);
  g::Graph graph = ses::data::MakeBarabasiAlbert(60, 2, &rng);
  g::KHopAdjacency k1(graph, 1), k2(graph, 2), k3(graph, 3);
  EXPECT_LE(k1.num_pairs(), k2.num_pairs());
  EXPECT_LE(k2.num_pairs(), k3.num_pairs());
}

TEST(KHopTest, MaxNeighborsCapRespected) {
  const ses::test::ScopedOmpTeam team(4);
  ses::util::Rng rng(8);
  g::Graph graph = ses::data::MakeBarabasiAlbert(100, 5, &rng);
  g::KHopAdjacency capped(graph, 2, /*max_neighbors=*/10);
  for (int64_t v = 0; v < graph.num_nodes(); ++v)
    EXPECT_LE(capped.Neighbors(v).size(), 10u);
}

// The k-hop construction before its BFS stopped at the cap: walk each node's
// whole k-hop ball, keep the first `cap` nodes in discovery order, then sort.
std::vector<std::vector<int64_t>> FullBallThenTruncate(const g::Graph& graph,
                                                       int64_t k,
                                                       int64_t cap) {
  std::vector<std::vector<int64_t>> balls(
      static_cast<size_t>(graph.num_nodes()));
  std::vector<int64_t> dist(static_cast<size_t>(graph.num_nodes()), -1);
  for (int64_t i = 0; i < graph.num_nodes(); ++i) {
    std::vector<int64_t> queue = {i};
    dist[static_cast<size_t>(i)] = 0;
    std::vector<int64_t>& ball = balls[static_cast<size_t>(i)];
    for (size_t head = 0; head < queue.size(); ++head) {
      const int64_t u = queue[head];
      if (dist[static_cast<size_t>(u)] >= k) continue;
      for (int64_t v : graph.Neighbors(u)) {
        if (dist[static_cast<size_t>(v)] >= 0) continue;
        dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + 1;
        queue.push_back(v);
        ball.push_back(v);
      }
    }
    if (cap > 0 && static_cast<int64_t>(ball.size()) > cap)
      ball.resize(static_cast<size_t>(cap));
    std::sort(ball.begin(), ball.end());
    for (int64_t v : queue) dist[static_cast<size_t>(v)] = -1;
  }
  return balls;
}

// A hub joined to 40 leaves that form a ring, plus a path hanging off the
// last leaf: the hub's 40 equidistant neighbours put ties at every cap
// boundary, for the hub and for every leaf that reaches the others through
// it.
g::Graph MakeHubWithRing() {
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t leaf = 1; leaf <= 40; ++leaf) {
    edges.emplace_back(0, leaf);
    edges.emplace_back(leaf, leaf % 40 + 1);
  }
  for (int64_t v = 40; v < 46; ++v) edges.emplace_back(v, v + 1);
  return g::Graph::FromUndirectedEdges(47, edges);
}

TEST(KHopTest, CappedBallIsTheClosestFirstPrefixOfTheFullBall) {
  const ses::test::ScopedOmpTeam team(4);
  ses::util::Rng rng(10);
  const g::Graph graphs[] = {ses::data::MakeBarabasiAlbert(300, 4, &rng),
                             MakeHubWithRing()};
  for (const g::Graph& graph : graphs) {
    for (const int64_t k : {1, 2, 3}) {
      for (const int64_t cap : {0, 1, 5, 32}) {
        SCOPED_TRACE("n=" + std::to_string(graph.num_nodes()) +
                     " k=" + std::to_string(k) +
                     " cap=" + std::to_string(cap));
        const auto want = FullBallThenTruncate(graph, k, cap);
        const g::KHopAdjacency khop(graph, k, cap);
        int64_t pairs = 0;
        for (int64_t v = 0; v < graph.num_nodes(); ++v) {
          const auto got = khop.Neighbors(v);
          EXPECT_EQ(std::vector<int64_t>(got.begin(), got.end()),
                    want[static_cast<size_t>(v)])
              << "node " << v;
          EXPECT_EQ(khop.PairOffset(v), pairs);
          pairs += static_cast<int64_t>(want[static_cast<size_t>(v)].size());
        }
        EXPECT_EQ(khop.num_pairs(), pairs);
      }
    }
  }
}

TEST(NegativeSamplingTest, DisjointFromKHopBall) {
  ses::util::Rng rng(9);
  g::Graph graph = ses::data::MakeBarabasiAlbert(80, 2, &rng);
  g::KHopAdjacency khop(graph, 2);
  std::vector<int64_t> labels(80);
  for (auto& l : labels) l = static_cast<int64_t>(rng.UniformInt(3));
  auto negs = g::SampleNegativeSets(khop, labels, &rng);
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_EQ(negs.Of(v).size(), khop.Neighbors(v).size());
    for (int64_t neg : negs.Of(v)) {
      EXPECT_NE(neg, v);
      EXPECT_FALSE(khop.Contains(v, neg));
    }
  }
}

TEST(NegativeSamplingTest, RespectsExplicitCounts) {
  ses::util::Rng rng(10);
  g::Graph graph = ses::data::MakeBarabasiAlbert(50, 2, &rng);
  g::KHopAdjacency khop(graph, 1);
  std::vector<int64_t> counts(50, 3);
  auto negs = g::SampleNegativeSets(khop, {}, &rng, counts);
  for (int64_t v = 0; v < 50; ++v) EXPECT_EQ(negs.Of(v).size(), 3u);
}

}  // namespace
