#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "random/rng.hpp"

namespace sgp::graph {
namespace {

Graph triangle_plus_isolated() {
  // Nodes 0-1-2 form a triangle; node 3 isolated.
  return Graph::from_edges(4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, NodesWithoutEdges) {
  const auto g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(GraphTest, BasicAdjacency) {
  const auto g = triangle_plus_isolated();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(GraphTest, NeighborsSorted) {
  const auto g = Graph::from_edges(4, std::vector<Edge>{{2, 0}, {2, 3}, {2, 1}});
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 3u);
}

TEST(GraphTest, DuplicateEdgesMerged) {
  const auto g =
      Graph::from_edges(2, std::vector<Edge>{{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, SelfLoopRejected) {
  EXPECT_THROW(Graph::from_edges(2, std::vector<Edge>{{1, 1}}),
               std::invalid_argument);
}

TEST(GraphTest, OutOfRangeEndpointRejected) {
  EXPECT_THROW(Graph::from_edges(2, std::vector<Edge>{{0, 2}}),
               std::invalid_argument);
}

TEST(GraphTest, EdgesCanonicalOrder) {
  const auto g = Graph::from_edges(4, std::vector<Edge>{{3, 1}, {2, 0}, {1, 0}});
  const auto es = g.edges();
  ASSERT_EQ(es.size(), 3u);
  EXPECT_EQ(es[0], (Edge{0, 1}));
  EXPECT_EQ(es[1], (Edge{0, 2}));
  EXPECT_EQ(es[2], (Edge{1, 3}));
}

TEST(GraphTest, AdjacencyMatrixSymmetricZeroOne) {
  const auto g = triangle_plus_isolated();
  const auto a = g.adjacency_matrix();
  EXPECT_EQ(a.rows(), 4u);
  EXPECT_EQ(a.cols(), 4u);
  EXPECT_EQ(a.nnz(), 6u);  // 2 per undirected edge
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 0.0);
}

/// Generated graphs of every shape the generators produce, plus the
/// degenerate ones.
std::vector<Graph> generated_graphs() {
  random::Rng rng(17);
  std::vector<Graph> graphs;
  graphs.push_back(Graph());
  graphs.push_back(Graph::from_edges(5, {}));
  graphs.push_back(triangle_plus_isolated());
  graphs.push_back(erdos_renyi(120, 0.05, rng));
  graphs.push_back(barabasi_albert(300, 4, rng));
  graphs.push_back(watts_strogatz(100, 6, 0.2, rng));
  graphs.push_back(stochastic_block_model({40, 60}, 0.3, 0.02, rng).graph);
  return graphs;
}

TEST(GraphTest, AdjacencyMatrixEqualsTripletAssembly) {
  for (const Graph& g : generated_graphs()) {
    std::vector<linalg::Triplet> trips;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
      for (const std::uint32_t v : g.neighbors(u)) {
        trips.push_back({static_cast<std::uint32_t>(u), v, 1.0});
      }
    }
    const linalg::CsrMatrix want = linalg::CsrMatrix::from_triplets(
        g.num_nodes(), g.num_nodes(), std::move(trips));
    const linalg::CsrMatrix got = g.adjacency_matrix();
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    ASSERT_EQ(got.nnz(), want.nnz());
    for (std::size_t r = 0; r < want.rows(); ++r) {
      const auto gi = got.row_indices(r);
      const auto wi = want.row_indices(r);
      ASSERT_TRUE(std::equal(gi.begin(), gi.end(), wi.begin(), wi.end()))
          << "row " << r;
      const auto gv = got.row_values(r);
      const auto wv = want.row_values(r);
      ASSERT_TRUE(std::equal(gv.begin(), gv.end(), wv.begin(), wv.end(),
                             [](double a, double b) {
                               return std::bit_cast<std::uint64_t>(a) ==
                                      std::bit_cast<std::uint64_t>(b);
                             }))
          << "row " << r;
    }
  }
}

// The counting-sort build must give the neighbor lists a global sort of
// all directed pairs gives, on edge lists full of duplicates in both
// orientations.
TEST(GraphTest, FromEdgesMatchesSortedPairBuild) {
  random::Rng rng(5);
  for (const std::size_t n : {2, 3, 10, 257}) {
    std::vector<Edge> edges;
    for (std::size_t k = 0; k < 6 * n; ++k) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      const auto v = static_cast<std::uint32_t>(rng.next_below(n));
      if (u != v) edges.push_back({u, v});
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (const Edge& e : edges) {
      pairs.emplace_back(e.u, e.v);
      pairs.emplace_back(e.v, e.u);
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

    const Graph g = Graph::from_edges(n, edges);
    ASSERT_EQ(g.num_nodes(), n);
    ASSERT_EQ(2 * g.num_edges(), pairs.size());
    std::size_t k = 0;
    for (std::size_t u = 0; u < n; ++u) {
      for (const std::uint32_t v : g.neighbors(u)) {
        ASSERT_EQ(pairs[k], std::make_pair(static_cast<std::uint32_t>(u), v));
        ++k;
      }
    }
  }
}

TEST(GraphTest, AverageDegree) {
  const auto g = triangle_plus_isolated();
  EXPECT_DOUBLE_EQ(g.average_degree(), 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(Graph().average_degree(), 0.0);
}

TEST(ComponentsTest, SingleComponent) {
  const auto g = triangle_plus_isolated();
  const auto cc = connected_components(g);
  EXPECT_EQ(cc.count, 2u);
  EXPECT_EQ(cc.labels[0], cc.labels[1]);
  EXPECT_EQ(cc.labels[1], cc.labels[2]);
  EXPECT_NE(cc.labels[0], cc.labels[3]);
}

TEST(ComponentsTest, AllIsolated) {
  const auto g = Graph::from_edges(4, {});
  const auto cc = connected_components(g);
  EXPECT_EQ(cc.count, 4u);
}

TEST(ComponentsTest, TwoChains) {
  const auto g =
      Graph::from_edges(6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto cc = connected_components(g);
  EXPECT_EQ(cc.count, 2u);
  EXPECT_EQ(cc.labels[0], cc.labels[2]);
  EXPECT_EQ(cc.labels[3], cc.labels[5]);
  EXPECT_NE(cc.labels[0], cc.labels[3]);
}

TEST(BfsTest, PathDistances) {
  const auto g =
      Graph::from_edges(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 3u);
}

TEST(BfsTest, UnreachableIsMax) {
  const auto g = triangle_plus_isolated();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[3], std::numeric_limits<std::size_t>::max());
}

TEST(BfsTest, InvalidSourceThrows) {
  const auto g = triangle_plus_isolated();
  EXPECT_THROW(bfs_distances(g, 4), std::invalid_argument);
}

}  // namespace
}  // namespace sgp::graph
