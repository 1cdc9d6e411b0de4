#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace epg {
namespace {

TEST(Metrics, CutEdgeCount) {
  const Graph g = make_ring(6);
  const PartitionLabels half{0, 0, 0, 1, 1, 1};
  EXPECT_EQ(cut_edge_count(g, half), 2u);
  const auto edges = cut_edges(g, half);
  ASSERT_EQ(edges.size(), 2u);
  // edges() enumerates (min,max) pairs lexicographically.
  EXPECT_EQ(edges[0], (Edge{0, 5}));
  EXPECT_EQ(edges[1], (Edge{2, 3}));
}

TEST(Metrics, CutEdgesAreTheCutSubsequenceOfEdges) {
  // n = 150 spans three bitset words per row.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(150, 0.05, seed);
    PartitionLabels labels(g.vertex_count());
    for (Vertex v = 0; v < labels.size(); ++v) labels[v] = (v * 7 + seed) % 5;
    std::vector<Edge> expected;
    for (const Edge& e : g.edges())
      if (labels[e.first] != labels[e.second]) expected.push_back(e);
    EXPECT_EQ(cut_edges(g, labels), expected);
    EXPECT_EQ(cut_edge_count(g, labels), expected.size());
  }
}

TEST(Metrics, CutEdgeCountSizeMismatchThrows) {
  EXPECT_THROW(cut_edge_count(make_ring(4), {0, 1}), std::invalid_argument);
}

TEST(Metrics, CutRankPathPrefix) {
  const Graph g = make_linear_cluster(6);
  for (std::size_t k = 1; k < 6; ++k) {
    std::vector<Vertex> prefix;
    for (Vertex v = 0; v < k; ++v) prefix.push_back(v);
    EXPECT_EQ(cut_rank(g, prefix), 1u) << "prefix length " << k;
  }
}

TEST(Metrics, CutRankStar) {
  const Graph g = make_star(6);
  EXPECT_EQ(cut_rank(g, {0}), 1u);            // hub vs leaves
  EXPECT_EQ(cut_rank(g, {1, 2}), 1u);         // leaves are parallel
  EXPECT_EQ(cut_rank(g, {0, 1, 2}), 1u);
}

TEST(Metrics, CutRankCompleteBipartiteLike) {
  // C4 = K_{2,2}. Cutting two adjacent vertices leaves the identity block
  // (rank 2); cutting across the bipartition leaves the all-ones block,
  // whose GF(2) rank is 1 — C4 is GHZ-like across that cut.
  const Graph g = make_ring(4);
  EXPECT_EQ(cut_rank(g, {0, 1}), 2u);
  EXPECT_EQ(cut_rank(g, {0, 2}), 1u);
}

TEST(Metrics, CutRankEmptyAndFull) {
  const Graph g = make_ring(5);
  EXPECT_EQ(cut_rank(g, {}), 0u);
  EXPECT_EQ(cut_rank(g, {0, 1, 2, 3, 4}), 0u);
}

TEST(Metrics, HeightFunctionPath) {
  const Graph g = make_linear_cluster(5);
  std::vector<Vertex> order{0, 1, 2, 3, 4};
  const auto h = height_function(g, order);
  ASSERT_EQ(h.size(), 6u);
  EXPECT_EQ(h.front(), 0u);
  EXPECT_EQ(h.back(), 0u);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_EQ(h[i], 1u);
  EXPECT_EQ(min_emitters_for_order(g, order), 1u);
}

TEST(Metrics, MinEmittersLatticeRowMajor) {
  // Row-major 2D lattice needs #columns emitters at the row boundary.
  const Graph g = make_lattice(3, 4);
  std::vector<Vertex> order(12);
  for (Vertex v = 0; v < 12; ++v) order[v] = v;
  EXPECT_EQ(min_emitters_for_order(g, order), 4u);
}

TEST(Metrics, MinEmittersRing) {
  const Graph g = make_ring(8);
  std::vector<Vertex> order(8);
  for (Vertex v = 0; v < 8; ++v) order[v] = v;
  EXPECT_EQ(min_emitters_for_order(g, order), 2u);
}

TEST(Metrics, EmitterBoundDominatesExactHeight) {
  // The O(n + m) open-vertex bound can never undercut the exact cut-rank
  // height (it feeds ne_limit above the exact path's size cutoff): the cut
  // matrix's nonzero rows are exactly the open vertices, so its rank is at
  // most their count. On a path emitted in order the two coincide.
  for (const Graph& g :
       {make_ring(8), make_lattice(3, 4), make_erdos_renyi(12, 0.4, 5),
        make_random_tree(20, 3, 3), make_linear_cluster(9)}) {
    std::vector<Vertex> order(g.vertex_count());
    for (Vertex v = 0; v < g.vertex_count(); ++v) order[v] = v;
    EXPECT_GE(emitter_bound_for_order(g, order),
              min_emitters_for_order(g, order));
  }
  const Graph path = make_linear_cluster(9);
  std::vector<Vertex> order(path.vertex_count());
  for (Vertex v = 0; v < path.vertex_count(); ++v) order[v] = v;
  EXPECT_EQ(emitter_bound_for_order(path, order), 1u);
  EXPECT_EQ(min_emitters_for_order(path, order), 1u);
}

TEST(Metrics, DegreeStats) {
  const Graph g = make_star(5);
  EXPECT_EQ(max_degree(g), 4u);
  EXPECT_DOUBLE_EQ(average_degree(g), 2.0 * 4 / 5);
}

}  // namespace
}  // namespace epg
