#include "solver/partition_refine.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace epg {
namespace {

std::size_t part_count(const Graph& g, const PartitionConfig& cfg) {
  if (cfg.num_parts > 0) return cfg.num_parts;
  return (g.vertex_count() + cfg.max_part_size - 1) / cfg.max_part_size;
}

/// Grow parts by BFS from randomly chosen seeds; vertices left over (from
/// exhausted frontiers) fill the emptiest parts.
PartitionLabels grow_seed_partition(const Graph& g, std::size_t k,
                                    std::size_t cap, Rng& rng) {
  const std::size_t n = g.vertex_count();
  PartitionLabels labels(n, static_cast<std::uint32_t>(k));  // k = unassigned
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
      // Pop one frontier vertex and claim an unassigned neighbor.
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

/// Scratch sized once per partition_min_cut call and reused by every
/// restart and pass, so refinement never allocates.
struct RefineScratch {
  std::vector<Vertex> order;
  std::vector<std::size_t> size;  ///< vertices per part
  std::vector<int> tally;         ///< one vertex's edges into each part
};

/// One improvement pass: greedy single-vertex moves and pairwise swaps that
/// strictly reduce the cut, each priced from local neighbor scans. `cut`
/// is kept exact. Returns true when anything improved.
bool refine_pass(const Graph& g, PartitionLabels& labels, std::size_t& cut,
                 std::size_t cap, Rng& rng, RefineScratch& s) {
  std::fill(s.size.begin(), s.size.end(), 0);
  for (std::uint32_t p : labels) ++s.size[p];

  bool improved = false;
  std::iota(s.order.begin(), s.order.end(), 0);
  rng.shuffle(s.order);

  for (Vertex v : s.order) {
    // One neighbor scan tallies v's edges into every part; moving v from
    // `from` to `to` gains tally[to] - tally[from] cut edges.
    std::fill(s.tally.begin(), s.tally.end(), 0);
    g.for_each_neighbor(v, [&](Vertex u) { ++s.tally[labels[u]]; });
    const std::uint32_t from = labels[v];
    int best_gain = 0;
    std::uint32_t best_to = from;
    for (std::uint32_t to = 0; to < s.tally.size(); ++to) {
      if (to == from || s.size[to] >= cap) continue;
      const int gain = s.tally[to] - s.tally[from];
      if (gain > best_gain) {
        best_gain = gain;
        best_to = to;
      }
    }
    if (best_to != from) {
      --s.size[from];
      ++s.size[best_to];
      labels[v] = best_to;
      cut -= static_cast<std::size_t>(best_gain);
      improved = true;
    }
  }

  // Pairwise swaps unlock moves blocked by the size cap. (Labels mutate
  // inside the visit, the graph does not — the live row scan is safe.)
  for (Vertex v : s.order) {
    g.for_each_neighbor(v, [&](Vertex u) {
      if (labels[u] == labels[v]) return;
      const int delta = swap_cut_delta(g, labels, v, u);
      if (delta < 0) {
        std::swap(labels[v], labels[u]);
        cut -= static_cast<std::size_t>(-delta);
        improved = true;
      }
    });
  }
  return improved;
}

}  // namespace

int swap_cut_delta(const Graph& g, const PartitionLabels& labels, Vertex v,
                   Vertex u) {
  // x's edges into its own part become cut, its edges into the other part
  // become internal; a v-u edge stays cut either way and is skipped.
  const auto loss = [&](Vertex x, Vertex skip, std::uint32_t own,
                        std::uint32_t other) {
    int d = 0;
    g.for_each_neighbor(x, [&](Vertex w) {
      if (w != skip) d += (labels[w] == own) - (labels[w] == other);
    });
    return d;
  };
  return loss(v, u, labels[v], labels[u]) + loss(u, v, labels[u], labels[v]);
}

bool partition_is_valid(const Graph& g, const PartitionLabels& labels,
                        std::size_t max_part_size) {
  if (labels.size() != g.vertex_count()) return false;
  std::vector<std::size_t> size;
  for (std::uint32_t p : labels) {
    if (p >= labels.size()) return false;
    if (p >= size.size()) size.resize(p + 1, 0);
    ++size[p];
  }
  for (std::size_t s : size)
    if (s > max_part_size) return false;
  return true;
}

PartitionLabels partition_min_cut(const Graph& g, const PartitionConfig& cfg,
                                  std::size_t* cut) {
  EPG_REQUIRE(cfg.max_part_size >= 1, "max_part_size must be positive");
  const std::size_t n = g.vertex_count();
  const std::size_t k = part_count(g, cfg);
  EPG_REQUIRE(k * cfg.max_part_size >= n,
              "partition cannot fit all vertices");
  if (k <= 1 || n == 0) {
    if (cut != nullptr) *cut = 0;
    return PartitionLabels(n, 0);
  }

  Rng rng(cfg.seed);
  RefineScratch scratch{std::vector<Vertex>(n), std::vector<std::size_t>(k),
                        std::vector<int>(k)};
  PartitionLabels best;
  std::size_t best_cut = static_cast<std::size_t>(-1);
  for (int r = 0; r < std::max(1, cfg.restarts); ++r) {
    PartitionLabels labels =
        grow_seed_partition(g, k, cfg.max_part_size, rng);
    std::size_t labels_cut = cut_edge_count(g, labels);
    for (int pass = 0; pass < cfg.max_passes; ++pass)
      if (!refine_pass(g, labels, labels_cut, cfg.max_part_size, rng,
                       scratch))
        break;
    if (labels_cut < best_cut) {
      best_cut = labels_cut;
      best = std::move(labels);
    }
  }
  EPG_CHECK(partition_is_valid(g, best, cfg.max_part_size),
            "refined partition must stay within the size cap");
  if (cut != nullptr) *cut = best_cut;
  return best;
}

}  // namespace epg
