#include "compile/subgraph_compiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/serialize.hpp"
#include "circuit/simulate.hpp"
#include "compile/pipeline.hpp"
#include "compile/verify.hpp"
#include "fuzz/mutators.hpp"
#include "graph/generators.hpp"

namespace epg {
namespace {

SubgraphCompileConfig quick_config(std::uint32_t ne) {
  SubgraphCompileConfig cfg;
  cfg.ne_limit = ne;
  cfg.node_budget = 15000;
  cfg.time_budget_ms = 200;
  return cfg;
}

TEST(SubgraphCompiler, PathNeedsNoEntanglingGates) {
  const auto r =
      compile_subgraph(SubgraphSpec(make_linear_cluster(6)), quick_config(1));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.best.stats.ee_cnot_count, 0u);
  EXPECT_EQ(r.best.ne_used, 1u);
}

TEST(SubgraphCompiler, StarNeedsNoEntanglingGates) {
  const auto r =
      compile_subgraph(SubgraphSpec(make_star(7)), quick_config(1));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.best.stats.ee_cnot_count, 0u);
}

TEST(SubgraphCompiler, CompleteGraphViaLcIsFree) {
  // K_n is LC-equivalent to a star; the in-search LC should find it.
  const auto r =
      compile_subgraph(SubgraphSpec(make_complete(5)), quick_config(1));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.best.stats.ee_cnot_count, 0u);
}

TEST(SubgraphCompiler, RingNeedsEntanglement) {
  const auto r =
      compile_subgraph(SubgraphSpec(make_ring(5)), quick_config(2));
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.best.stats.ee_cnot_count, 1u);
  EXPECT_LE(r.best.stats.ee_cnot_count, 2u);
}

TEST(SubgraphCompiler, RelaxesInfeasibleEmitterLimit) {
  // A 6-cycle cannot be produced with a single emitter: every size-3 vertex
  // subset of C6 has cut-rank >= 2, and cut-rank is invariant under the
  // reduction's LC moves. (C4 would be a bad pick here — it is LC-equivalent
  // to a path and genuinely compiles with one emitter.)
  const auto r =
      compile_subgraph(SubgraphSpec(make_ring(6)), quick_config(1));
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.relaxed_ne);
  EXPECT_GE(r.ne_limit_used, 2u);
}

TEST(SubgraphCompiler, BoundaryDanglerHostRecorded) {
  // Path 0-1-2 with 0 on a stem edge: the cheapest reduction swaps the far
  // end and dangler-absorbs down the chain, so the boundary photon is
  // emitted by a host window (via_swap=false) instead of a dedicated
  // anchor, saving the second emitter slot.
  SubgraphSpec spec(make_linear_cluster(3), {true, false, false});
  const auto r = compile_subgraph(spec, quick_config(2));
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.best.anchors.size(), 1u);
  EXPECT_EQ(r.best.anchors[0].vertex, 0u);
  EXPECT_FALSE(r.best.anchors[0].via_swap);
  EXPECT_EQ(r.best.stats.ee_cnot_count, 0u);
  EXPECT_EQ(r.best.ne_used, 1u);
  // The window gate range is valid and points at the emission cluster.
  EXPECT_LT(r.best.anchors[0].tail_begin, r.best.circuit.size());
}

TEST(SubgraphCompiler, AnchorsOnlyPolicyForcesSwapHosts) {
  SubgraphSpec spec(make_linear_cluster(3), {true, false, false});
  SubgraphCompileConfig cfg = quick_config(3);
  cfg.dangler = DanglerPolicy::anchors_only();
  const auto r = compile_subgraph(spec, cfg);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.best.anchors.size(), 1u);
  EXPECT_TRUE(r.best.anchors[0].via_swap);
}

TEST(SubgraphCompiler, NeMinHelper) {
  EXPECT_EQ(subgraph_ne_min(make_linear_cluster(5)), 1u);
  EXPECT_EQ(subgraph_ne_min(make_star(6)), 1u);
  EXPECT_EQ(subgraph_ne_min(make_ring(6)), 2u);
  EXPECT_GE(subgraph_ne_min(make_lattice(2, 3)), 2u);
}

TEST(SubgraphCompiler, BoundaryAnchorsProduced) {
  SubgraphSpec spec(make_linear_cluster(5),
                    {true, false, false, false, true});
  const auto r = compile_subgraph(spec, quick_config(3));
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.best.anchors.size(), 2u);
  // Anchors reference the boundary vertices and valid slots/gates.
  for (const AnchorInfo& a : r.best.anchors) {
    EXPECT_TRUE(a.vertex == 0 || a.vertex == 4);
    EXPECT_LT(a.init_gate, r.best.circuit.size());
    EXPECT_LT(a.tail_begin, r.best.circuit.size());
    const Gate& tail = r.best.circuit.gates()[a.tail_begin];
    EXPECT_EQ(tail.kind, GateKind::emission);
    EXPECT_EQ(tail.b.index, a.vertex);
    EXPECT_EQ(tail.a.index, a.slot);
  }
}

TEST(SubgraphCompiler, VerifiedAgainstTarget) {
  for (const Graph& g : {make_ring(6), make_lattice(2, 3), make_waxman(7, 1),
                         make_complete(4)}) {
    const auto r = compile_subgraph(SubgraphSpec(g), quick_config(2));
    ASSERT_TRUE(r.success);
    const VerifyReport report = verify_generates(r.best.circuit, g, 3);
    EXPECT_TRUE(report.ok) << report.message;
  }
}

/// Property sweep: every connected 4-vertex graph (by edge mask) compiles
/// and verifies, with and without boundary vertices.
class AllFourVertexGraphs : public ::testing::TestWithParam<unsigned> {};

TEST_P(AllFourVertexGraphs, CompilesAndVerifies) {
  const unsigned mask = GetParam();
  const Edge all_edges[6] = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  Graph g(4);
  for (int b = 0; b < 6; ++b)
    if (mask & (1u << b)) g.add_edge(all_edges[b].first, all_edges[b].second);

  const auto r = compile_subgraph(SubgraphSpec(g), quick_config(2));
  ASSERT_TRUE(r.success) << "mask " << mask;
  EXPECT_TRUE(verify_generates(r.best.circuit, g, 2).ok) << "mask " << mask;

  // Same graph with vertex 0 marked as a stem endpoint.
  SubgraphSpec spec(g, {true, false, false, false});
  const auto rb = compile_subgraph(spec, quick_config(2));
  ASSERT_TRUE(rb.success) << "mask " << mask;
  ASSERT_EQ(rb.best.anchors.size(), 1u);
  EXPECT_TRUE(verify_generates(rb.best.circuit, g, 2).ok) << "mask " << mask;
}

INSTANTIATE_TEST_SUITE_P(EdgeMasks, AllFourVertexGraphs,
                         ::testing::Range(0u, 64u));

TEST(SubgraphCompiler, MoreEmittersNeverWorseOnCnots) {
  const Graph g = make_lattice(2, 3);
  const auto r2 = compile_subgraph(SubgraphSpec(g), quick_config(2));
  auto cfg3 = quick_config(3);
  const auto r3 = compile_subgraph(SubgraphSpec(g), cfg3);
  ASSERT_TRUE(r2.success && r3.success);
  EXPECT_LE(r3.best.stats.ee_cnot_count, r2.best.stats.ee_cnot_count);
}

TEST(SubgraphCompiler, SynthesizeForwardIsDeterministic) {
  const Graph g = make_ring(5);
  const auto a = compile_subgraph(SubgraphSpec(g), quick_config(2));
  const auto b = compile_subgraph(SubgraphSpec(g), quick_config(2));
  ASSERT_TRUE(a.success && b.success);
  EXPECT_EQ(a.best.circuit.size(), b.best.circuit.size());
  EXPECT_EQ(a.best.stats.ee_cnot_count, b.best.stats.ee_cnot_count);
  EXPECT_EQ(a.best.stats.makespan_ticks, b.best.stats.makespan_ticks);
}

// ---- emitter floor and the shared ne-walk --------------------------------

using fuzz::make_seed_graph;
using fuzz::seed_family_count;
using fuzz::seed_family_name;

/// The first (up to) `n` vertices of `g` in BFS order from vertex 0, as an
/// induced (connected) subgraph.
Graph bfs_prefix(const Graph& g, std::size_t n) {
  std::vector<Vertex> keep{0};
  std::vector<bool> seen(g.vertex_count(), false);
  seen[0] = true;
  for (std::size_t h = 0; h < keep.size() && keep.size() < n; ++h)
    g.for_each_neighbor(keep[h], [&](Vertex u) {
      if (!seen[u] && keep.size() < n) {
        seen[u] = true;
        keep.push_back(u);
      }
    });
  std::sort(keep.begin(), keep.end());
  return g.induced(keep);
}

/// Exhaustive searches: neither budget may cut a tree short, so a failure
/// means no reduction exists at that emitter count.
SubgraphCompileConfig exhaustive_config(DanglerPolicy policy) {
  SubgraphCompileConfig cfg;
  cfg.node_budget = 50'000'000;
  cfg.time_budget_ms = 1e15;
  cfg.dangler = policy;
  return cfg;
}

/// Floor proof, checked by exhaustion: on small parts from every generator
/// family, with every boundary set of size >= 2, no search one emitter
/// below subgraph_ne_floor succeeds — under anchors-only (every boundary
/// vertex counts) and under key-ordered with must_swap keys (only those
/// count) — while the walk from below the floor still finds a reduction
/// at or above it.
TEST(SubgraphCompiler, NoSearchBelowTheEmitterFloorSucceeds) {
  std::size_t checked = 0;
  for (std::size_t family = 0; family < seed_family_count(); ++family) {
    const Graph g = bfs_prefix(make_seed_graph(family, 0, 11 + family), 6);
    const std::size_t n = g.vertex_count();
    ASSERT_GE(n, 3u) << seed_family_name(family);
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      if (__builtin_popcount(mask) < 2) continue;
      std::vector<bool> boundary(n, false);
      for (std::size_t v = 0; v < n; ++v) boundary[v] = (mask >> v) & 1u;
      // Key-ordered: every other boundary vertex carries several stems.
      std::vector<std::uint32_t> keys(n, 0);
      std::uint32_t rank = 0;
      for (std::size_t v = 0; v < n; ++v)
        if (boundary[v])
          keys[v] = rank++ % 2 == 0 ? SubgraphSpec::must_swap : rank;
      const SubgraphSpec spec(g, boundary, keys);
      for (const DanglerPolicy policy :
           {DanglerPolicy::anchors_only(), DanglerPolicy::key_ordered()}) {
        const SubgraphCompileConfig cfg = exhaustive_config(policy);
        const std::uint32_t floor = subgraph_ne_floor(spec, policy);
        if (floor < 2) continue;
        const auto below = compile_subgraph_at(spec, cfg, floor - 1);
        EXPECT_FALSE(below.success)
            << seed_family_name(family) << " mask " << mask << " key_order "
            << policy.key_order << " floor " << floor;
        EXPECT_LT(below.nodes_explored, cfg.node_budget);
        SubgraphCompileConfig walk = cfg;
        walk.ne_limit = 1;
        const auto r = compile_subgraph(spec, walk);
        ASSERT_TRUE(r.success);
        EXPECT_GE(r.ne_limit_used, floor);
        EXPECT_TRUE(r.relaxed_ne);
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 500u);  // the boundary sets really reach floors >= 2
}

TEST(SubgraphCompiler, FloorCountsOnlyVerticesNoWindowMayHost) {
  const std::vector<std::uint32_t> keys = {SubgraphSpec::must_swap, 1, 2,
                                           SubgraphSpec::must_swap};
  const SubgraphSpec spec(make_linear_cluster(4), {true, true, false, true},
                          keys);
  EXPECT_EQ(subgraph_ne_floor(spec, DanglerPolicy::anchors_only()), 3u);
  EXPECT_EQ(subgraph_ne_floor(spec, DanglerPolicy::key_ordered()), 2u);
  EXPECT_EQ(subgraph_ne_floor(spec, DanglerPolicy::free_form()), 0u);
}

/// The per-part loop as it stood before the shared walk: every requested
/// count searches upward from itself, with no floor and no shared searches.
SubgraphCompileResult reference_walk(const SubgraphSpec& spec,
                                     const SubgraphCompileConfig& cfg) {
  const auto n = static_cast<std::uint32_t>(spec.graph.vertex_count());
  for (std::uint32_t ne = cfg.ne_limit; ne <= n + 1; ++ne) {
    SubgraphCompileResult r = compile_subgraph_at(spec, cfg, ne);
    if (r.success) return r;
  }
  return {};
}

PartVariants reference_variants(const SubgraphSpec& spec,
                                const SubgraphCompileConfig& base,
                                std::uint32_t ne_cap) {
  PartVariants out;
  const std::uint32_t ne_min = subgraph_ne_min(spec.graph);
  auto add = [&](const SubgraphCompileConfig& policy_cfg) {
    for (std::uint32_t extra = 0; extra < 3; ++extra) {
      const std::uint32_t ne = ne_min + extra;
      if (extra > 0 && ne > ne_cap) break;
      SubgraphCompileConfig cfg = policy_cfg;
      cfg.ne_limit = ne;
      const SubgraphCompileResult r = reference_walk(spec, cfg);
      if (!r.success) continue;
      const bool duplicate = std::any_of(
          out.variants.begin(), out.variants.end(),
          [&](const SubgraphCircuit& v) {
            return v.ne_used == r.best.ne_used &&
                   v.stats.ee_cnot_count == r.best.stats.ee_cnot_count &&
                   v.stats.makespan_ticks == r.best.stats.makespan_ticks;
          });
      if (!duplicate) out.variants.push_back(r.best);
    }
  };
  add(base);
  const bool has_boundary = std::find(spec.boundary.begin(),
                                      spec.boundary.end(),
                                      true) != spec.boundary.end();
  if (has_boundary && base.dangler.cap != 0) {
    SubgraphCompileConfig anchors = base;
    anchors.dangler = DanglerPolicy::anchors_only();
    add(anchors);
  }
  return out;
}

/// compile_variants (one walk per requested count, searches shared through
/// the part cache, floor skipped) returns exactly what the old per-call
/// loop returned: same circuits, anchors and peak emitters for every part
/// of real partitions, under each of the three dangler policies.
TEST(SubgraphCompiler, CompileVariantsMatchesThePerCallReference) {
  FrameworkConfig fcfg;
  fcfg.partition.time_budget_ms = 1e15;
  fcfg.partition.max_lc_ops = 4;
  fcfg.partition.beam_width = 3;
  SubgraphCompileConfig base;
  base.node_budget = 10000;
  base.time_budget_ms = 1e15;
  std::size_t parts_checked = 0, floor_skips = 0;
  for (std::size_t family = 0; family < seed_family_count(); ++family) {
    const Graph g = make_seed_graph(family, 1, 31 + family);
    const Executor serial;
    PipelineContext ctx{g, fcfg, serial, {}, {}, {}, {}, {}, nullptr};
    make_framework_pipeline().front()->run(ctx);
    for (const DanglerPolicy policy :
         {DanglerPolicy::free_form(), DanglerPolicy::key_ordered(),
          DanglerPolicy::anchors_only()}) {
      SubgraphCompileConfig cfg = base;
      cfg.dangler = policy;
      PartCompileCache cache;
      for (const PartPlan& part : ctx.plan.parts) {
        const PartVariants got =
            compile_variants(part.spec, cfg, ctx.result.ne_limit, cache);
        const PartVariants want =
            reference_variants(part.spec, cfg, ctx.result.ne_limit);
        ASSERT_EQ(got.variants.size(), want.variants.size())
            << seed_family_name(family);
        for (std::size_t i = 0; i < want.variants.size(); ++i) {
          const SubgraphCircuit& a = got.variants[i];
          const SubgraphCircuit& b = want.variants[i];
          EXPECT_EQ(serialize_circuit(a.circuit), serialize_circuit(b.circuit));
          EXPECT_EQ(a.ne_used, b.ne_used);
          ASSERT_EQ(a.anchors.size(), b.anchors.size());
          for (std::size_t k = 0; k < a.anchors.size(); ++k) {
            EXPECT_EQ(a.anchors[k].vertex, b.anchors[k].vertex);
            EXPECT_EQ(a.anchors[k].slot, b.anchors[k].slot);
            EXPECT_EQ(a.anchors[k].init_gate, b.anchors[k].init_gate);
            EXPECT_EQ(a.anchors[k].tail_begin, b.anchors[k].tail_begin);
            EXPECT_EQ(a.anchors[k].via_swap, b.anchors[k].via_swap);
          }
        }
        floor_skips += subgraph_ne_floor(part.spec,
                                         DanglerPolicy::anchors_only()) >
                       subgraph_ne_min(part.spec.graph);
        ++parts_checked;
      }
    }
  }
  EXPECT_GE(parts_checked, 40u);
  EXPECT_GT(floor_skips, 0u);  // the floor really skips searches here
}

}  // namespace
}  // namespace epg
