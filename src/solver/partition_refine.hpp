// Heuristic min-cut balanced partitioning (Fiduccia-Mattheyses flavored
// move-based refinement with BFS region-growing seeds and multi-restart).
// Every move and swap is priced from the neighbor rows of the vertices it
// touches and the running cut is updated by that delta, so a refinement
// pass is O(n + m) bitset-row scans and never recounts the whole cut.
//
// This is the inner engine of the paper's MIP model (Section IV.A): split
// the n vertices into ceil(n/g_max) parts of size <= g_max while minimizing
// the number of cut ("stem") edges. Exact branch-and-bound handles small
// instances (partition_bnb.hpp); this scales to the paper's 60-qubit range.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/metrics.hpp"

namespace epg {

struct PartitionConfig {
  std::size_t max_part_size = 7;  ///< the paper's g_max
  /// Number of parts; 0 derives ceil(n / max_part_size).
  std::size_t num_parts = 0;
  std::uint64_t seed = 1;
  int restarts = 8;
  int max_passes = 32;  ///< refinement passes per restart
};

/// Best partition found; labels are 0..num_parts-1 and sizes respect
/// max_part_size. A non-null `cut` receives its cut edge count.
PartitionLabels partition_min_cut(const Graph& g, const PartitionConfig& cfg,
                                  std::size_t* cut = nullptr);

/// Change in cut_edge_count if v and u exchanged labels, from the neighbor
/// rows of v and u alone. Negative means the swap shrinks the cut.
int swap_cut_delta(const Graph& g, const PartitionLabels& labels, Vertex v,
                   Vertex u);

/// Part sizes are all within the cap and every vertex has a valid label.
bool partition_is_valid(const Graph& g, const PartitionLabels& labels,
                        std::size_t max_part_size);

}  // namespace epg
