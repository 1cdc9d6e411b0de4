#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "solver/anneal.hpp"
#include "solver/partition_bnb.hpp"
#include "solver/partition_refine.hpp"

namespace epg {
namespace {

/// Exhaustive optimal cut for tiny instances (reference oracle).
std::size_t brute_force_cut(const Graph& g, std::size_t cap, std::size_t k) {
  const std::size_t n = g.vertex_count();
  std::vector<std::uint32_t> labels(n, 0);
  std::size_t best = static_cast<std::size_t>(-1);
  std::vector<std::size_t> size(k, 0);
  const auto recurse = [&](auto&& self, std::size_t v) -> void {
    if (v == n) {
      best = std::min(best, cut_edge_count(g, labels));
      return;
    }
    for (std::uint32_t p = 0; p < k; ++p) {
      if (size[p] >= cap) continue;
      labels[v] = p;
      ++size[p];
      self(self, v + 1);
      --size[p];
    }
  };
  recurse(recurse, 0);
  return best;
}

/// Full-recount reference refiner: the implementation partition_min_cut
/// had before its moves and swaps were priced by local deltas. Same seeding,
/// RNG draws, visit order and tie-breaks; every swap probe recounts the
/// whole cut. The differential tests below require identical labels.
namespace reference {

PartitionLabels grow_seed_partition(const Graph& g, std::size_t k,
                                    std::size_t cap, Rng& rng) {
  const std::size_t n = g.vertex_count();
  PartitionLabels labels(n, static_cast<std::uint32_t>(k));
  std::vector<std::size_t> size(k, 0);
  std::vector<std::vector<Vertex>> frontier(k);
  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (std::size_t p = 0; p < k && p < n; ++p) {
    labels[order[p]] = static_cast<std::uint32_t>(p);
    size[p] = 1;
    frontier[p].push_back(order[p]);
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t p = 0; p < k; ++p) {
      if (size[p] >= cap || frontier[p].empty()) continue;
      bool grew = false;
      for (std::size_t f = 0; f < frontier[p].size() && !grew; ++f) {
        g.for_each_neighbor(frontier[p][f], [&](Vertex u) {
          if (!grew && labels[u] == k) {
            labels[u] = static_cast<std::uint32_t>(p);
            ++size[p];
            frontier[p].push_back(u);
            grew = true;
          }
        });
      }
      progress = progress || grew;
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    if (labels[v] != k) continue;
    const std::size_t p = static_cast<std::size_t>(
        std::min_element(size.begin(), size.end()) - size.begin());
    labels[v] = static_cast<std::uint32_t>(p);
    ++size[p];
  }
  return labels;
}

bool refine_pass(const Graph& g, PartitionLabels& labels, std::size_t k,
                 std::size_t cap, Rng& rng) {
  const std::size_t n = g.vertex_count();
  std::vector<std::size_t> size(k, 0);
  for (Vertex v = 0; v < n; ++v) ++size[labels[v]];
  auto gain_of_move = [&](Vertex v, std::uint32_t to) {
    int internal = 0, external = 0;
    g.for_each_neighbor(v, [&](Vertex u) {
      if (labels[u] == labels[v]) ++internal;
      if (labels[u] == to) ++external;
    });
    return external - internal;
  };
  bool improved = false;
  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (Vertex v : order) {
    const std::uint32_t from = labels[v];
    int best_gain = 0;
    std::uint32_t best_to = from;
    for (std::uint32_t to = 0; to < k; ++to) {
      if (to == from || size[to] >= cap) continue;
      const int gain = gain_of_move(v, to);
      if (gain > best_gain) {
        best_gain = gain;
        best_to = to;
      }
    }
    if (best_to != from) {
      --size[from];
      ++size[best_to];
      labels[v] = best_to;
      improved = true;
    }
  }
  for (Vertex v : order) {
    g.for_each_neighbor(v, [&](Vertex u) {
      if (labels[u] == labels[v]) return;
      const std::uint32_t pv = labels[v], pu = labels[u];
      const int before = static_cast<int>(cut_edge_count(g, labels));
      labels[v] = pu;
      labels[u] = pv;
      const int after = static_cast<int>(cut_edge_count(g, labels));
      if (after < before) {
        improved = true;
      } else {
        labels[v] = pv;
        labels[u] = pu;
      }
    });
  }
  return improved;
}

PartitionLabels partition_min_cut(const Graph& g, const PartitionConfig& cfg) {
  const std::size_t n = g.vertex_count();
  const std::size_t k = cfg.num_parts > 0
                            ? cfg.num_parts
                            : (n + cfg.max_part_size - 1) / cfg.max_part_size;
  if (k <= 1 || n == 0) return PartitionLabels(n, 0);
  Rng rng(cfg.seed);
  PartitionLabels best;
  std::size_t best_cut = static_cast<std::size_t>(-1);
  for (int r = 0; r < std::max(1, cfg.restarts); ++r) {
    PartitionLabels labels =
        grow_seed_partition(g, k, cfg.max_part_size, rng);
    for (int pass = 0; pass < cfg.max_passes; ++pass)
      if (!refine_pass(g, labels, k, cfg.max_part_size, rng)) break;
    const std::size_t cut = cut_edge_count(g, labels);
    if (cut < best_cut) {
      best_cut = cut;
      best = labels;
    }
  }
  return best;
}

}  // namespace reference

/// The differential families: random, lattice, tree and Waxman, n in 8..64.
std::vector<std::pair<std::string, Graph>> differential_graphs() {
  std::vector<std::pair<std::string, Graph>> out;
  for (std::size_t n : {8, 13, 24, 40, 64}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const std::string tag =
          std::to_string(n) + "." + std::to_string(seed);
      out.emplace_back("random" + tag,
                       make_erdos_renyi(n, 4.0 / static_cast<double>(n),
                                        seed + 11));
      out.emplace_back("tree" + tag, make_random_tree(n, seed + 21));
      out.emplace_back("waxman" + tag, make_waxman(n, seed + 31));
    }
  }
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{2, 4},
                                   {3, 5}, {4, 6}, {5, 8}, {8, 8}})
    out.emplace_back(
        "lattice" + std::to_string(rows) + "x" + std::to_string(cols),
        make_lattice(rows, cols));
  return out;
}

TEST(PartitionRefine, MatchesFullRecountReference) {
  for (const auto& [name, g] : differential_graphs()) {
    for (std::size_t cap : {3, 5, 7}) {
      const std::size_t k = (g.vertex_count() + cap - 1) / cap;
      for (std::size_t parts : {std::size_t{0}, k + 1}) {
        for (int restarts : {1, 2, 8}) {
          for (std::uint64_t seed : {1, 7}) {
            PartitionConfig cfg;
            cfg.max_part_size = cap;
            cfg.num_parts = parts;
            cfg.restarts = restarts;
            cfg.seed = seed;
            std::size_t cut = 0;
            const PartitionLabels got = partition_min_cut(g, cfg, &cut);
            SCOPED_TRACE(name + " cap=" + std::to_string(cap) +
                         " parts=" + std::to_string(parts) +
                         " restarts=" + std::to_string(restarts) +
                         " seed=" + std::to_string(seed));
            ASSERT_EQ(got, reference::partition_min_cut(g, cfg));
            ASSERT_EQ(cut, cut_edge_count(g, got));
          }
        }
      }
    }
  }
}

TEST(PartitionRefine, SwapDeltaEqualsRecountedCutDifference) {
  Rng rng(3);
  for (const auto& [name, g] : differential_graphs()) {
    const std::size_t n = g.vertex_count();
    for (std::uint32_t k : {2u, 3u, 5u}) {
      PartitionLabels labels(n);
      for (std::uint32_t& l : labels)
        l = static_cast<std::uint32_t>(rng.below(k));
      const auto before = static_cast<long>(cut_edge_count(g, labels));
      // Every ordered pair: adjacent or not, same part or not.
      for (Vertex v = 0; v < n; ++v) {
        for (Vertex u = 0; u < n; ++u) {
          if (u == v) continue;
          const int delta = swap_cut_delta(g, labels, v, u);
          std::swap(labels[v], labels[u]);
          const auto after = static_cast<long>(cut_edge_count(g, labels));
          std::swap(labels[v], labels[u]);
          ASSERT_EQ(delta, after - before)
              << name << " k=" << k << " swap " << v << "<->" << u;
        }
      }
    }
  }
}

TEST(PartitionRefine, ValidAndWithinCap) {
  const Graph g = make_waxman(30, 4);
  PartitionConfig cfg;
  cfg.max_part_size = 7;
  const PartitionLabels labels = partition_min_cut(g, cfg);
  EXPECT_TRUE(partition_is_valid(g, labels, 7));
}

TEST(PartitionRefine, SinglePartTrivial) {
  const Graph g = make_ring(5);
  PartitionConfig cfg;
  cfg.max_part_size = 7;
  const PartitionLabels labels = partition_min_cut(g, cfg);
  EXPECT_EQ(cut_edge_count(g, labels), 0u);
}

TEST(PartitionRefine, FindsObviousCut) {
  // Two K4 cliques joined by one bridge: optimal cut = 1.
  Graph g(8);
  for (Vertex u = 0; u < 4; ++u)
    for (Vertex v = u + 1; v < 4; ++v) g.add_edge(u, v);
  for (Vertex u = 4; u < 8; ++u)
    for (Vertex v = u + 1; v < 8; ++v) g.add_edge(u, v);
  g.add_edge(3, 4);
  PartitionConfig cfg;
  cfg.max_part_size = 4;
  cfg.restarts = 8;
  const PartitionLabels labels = partition_min_cut(g, cfg);
  EXPECT_EQ(cut_edge_count(g, labels), 1u);
}

TEST(PartitionBnb, MatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = make_erdos_renyi(8, 0.4, seed);
    const auto exact = partition_exact(g, 4, 2);
    ASSERT_TRUE(exact.has_value());
    EXPECT_TRUE(partition_is_valid(g, *exact, 4));
    EXPECT_EQ(cut_edge_count(g, *exact), brute_force_cut(g, 4, 2));
  }
}

TEST(PartitionBnb, ThreeParts) {
  const Graph g = make_ring(9);
  const auto exact = partition_exact(g, 3, 3);
  ASSERT_TRUE(exact.has_value());
  // Ring of 9 into 3 arcs: 3 cut edges.
  EXPECT_EQ(cut_edge_count(g, *exact), 3u);
}

TEST(PartitionBnb, BudgetExhaustionReturnsNullopt) {
  const Graph g = make_erdos_renyi(14, 0.5, 1);
  EXPECT_FALSE(partition_exact(g, 7, 2, /*node_budget=*/10).has_value());
}

TEST(PartitionRefine, HeuristicNearExactOnSmall) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = make_erdos_renyi(9, 0.35, 100 + seed);
    PartitionConfig cfg;
    cfg.max_part_size = 5;
    cfg.num_parts = 2;
    cfg.seed = seed;
    cfg.restarts = 10;
    const auto heur = partition_min_cut(g, cfg);
    const auto exact = partition_exact(g, 5, 2);
    ASSERT_TRUE(exact.has_value());
    // Multi-restart refinement should be within one edge of optimal here.
    EXPECT_LE(cut_edge_count(g, heur), cut_edge_count(g, *exact) + 1);
  }
}

TEST(Anneal, AcceptanceFunction) {
  EXPECT_DOUBLE_EQ(anneal_acceptance(-1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(anneal_acceptance(0.0, 1.0), 1.0);
  EXPECT_NEAR(anneal_acceptance(1.0, 1.0), std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(anneal_acceptance(1.0, 0.0), 0.0);
}

TEST(Anneal, MinimizesQuadratic) {
  Rng rng(5);
  const std::function<double(const double&)> energy = [](const double& x) {
    return (x - 3.0) * (x - 3.0);
  };
  const std::function<double(const double&, Rng&)> neighbor =
      [](const double& x, Rng& r) { return x + (r.uniform() - 0.5); };
  const double best = anneal<double>(-10.0, energy, neighbor, rng);
  EXPECT_NEAR(best, 3.0, 0.5);
}

}  // namespace
}  // namespace epg
