// Depth-limited LC + partition co-search — the anytime substitute for the
// paper's Gurobi MIP (Section IV.A).
//
// The search explores local-complementation sequences of length <= l; each
// candidate graph is scored by the min-cut of a (fast) balanced partition.
// Small graphs are certified with exact branch-and-bound. Setting
// max_lc_ops = 0 disables the LC transformation, which is the paper's
// Fig. 11b ablation baseline.
//
// Which *engine* explores the LC space is pluggable (see
// partition/partition_strategy.hpp): a beam search, a simulated-annealing
// chain (solver/anneal.hpp), or a seed portfolio that races restarts of
// both. `search_lc_partition` dispatches on `LcPartitionConfig::strategy`
// with a serial executor; callers with a thread pool go through the
// strategy interface directly.
#pragma once

#include <cstdint>
#include <string>

#include "partition/partition_problem.hpp"
#include "solver/partition_refine.hpp"

namespace epg {

struct LcPartitionConfig {
  std::size_t g_max = 7;        ///< paper's subgraph size cap
  std::size_t max_lc_ops = 15;  ///< paper's l
  std::size_t beam_width = 6;
  double time_budget_ms = 2000.0;
  std::uint64_t seed = 7;
  /// Restart counts for the quick (scoring) and final (polish) partitions.
  int quick_restarts = 2;
  int final_restarts = 12;
  /// Use exact branch-and-bound when the graph is small enough.
  bool exact_small = true;
  std::size_t exact_vertex_limit = 13;
  /// Registered PartitionStrategy name: "beam" | "anneal" | "portfolio" |
  /// "multilevel" (see partition/partition_strategy.hpp).
  std::string strategy = "beam";
  /// Simulated-annealing chain length ("anneal" and portfolio members).
  int anneal_iterations = 1500;
  /// Concurrent restarts the "portfolio" strategy races.
  std::size_t portfolio_width = 4;

  // ---- "multilevel" strategy knobs (partition/multilevel.hpp) ----
  /// Graphs at or below this many vertices skip coarsening entirely and
  /// run the inner flat search on the (trivially coarsest) original.
  std::size_t coarsen_floor = 192;
  /// Flat strategy run below the floor and raced below the race limit:
  /// "beam" | "anneal" | "portfolio".
  std::string multilevel_inner = "beam";
  /// Up to this size the coarsen-refine result additionally races the
  /// inner strategy on the original graph and the better cut wins — the
  /// "multilevel never loses to the flat search" guarantee, affordable
  /// exactly while the flat search still is.
  std::size_t multilevel_race_limit = 192;
  /// Boundary-refinement sweeps per uncoarsening level.
  int multilevel_refine_passes = 6;
  /// Skip LC-aware local moves at vertices above this degree (an LC try
  /// costs O(degree^2) edge probes — the cap only exists to keep hub
  /// vertices of huge graphs from dominating a refinement sweep).
  std::size_t multilevel_lc_degree_cap = 64;
};

PartitionOutcome search_lc_partition(const Graph& g,
                                     const LcPartitionConfig& cfg);

// ---- shared building blocks of every strategy ------------------------------

/// Balanced min-cut partition with the search's solver stack: exact
/// branch-and-bound on small graphs, multi-restart refinement otherwise.
/// A non-null `cut` receives the partition's cut edge count.
PartitionLabels lc_partition_solve(const Graph& g,
                                   const LcPartitionConfig& cfg,
                                   int restarts, std::uint64_t seed,
                                   std::size_t* cut = nullptr);

/// Cut size of a quick (few-restart) partition — the noisy score every
/// search ranks candidate LC-transformed graphs by.
std::size_t lc_partition_quick_cut(const Graph& g,
                                   const LcPartitionConfig& cfg,
                                   std::uint64_t seed);

/// Polish a search winner with the thorough partitioner and compare it
/// against the untransformed graph polished the same way; ties prefer the
/// identity, which needs no LC correction gates. LC therefore never loses
/// to not using LC, whichever strategy produced `best_graph`.
PartitionOutcome lc_partition_finalize(const Graph& original,
                                       Graph best_graph,
                                       std::vector<Vertex> lc_sequence,
                                       const LcPartitionConfig& cfg);

}  // namespace epg
