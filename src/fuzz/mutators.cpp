#include "fuzz/mutators.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "graph/generators.hpp"
#include "graph/local_complement.hpp"

namespace epg::fuzz {
namespace {

std::string vertex_pair(Vertex u, Vertex v) {
  return std::to_string(u) + "-" + std::to_string(v);
}

/// Copy `src` into `dst` starting at vertex offset `base` (dst must already
/// have the vertices).
void splice_into(Graph& dst, const Graph& src, Vertex base) {
  for (const auto& [u, v] : src.edges()) dst.add_edge(base + u, base + v);
}

// ---- catalog members -------------------------------------------------------

/// Toggle a uniformly random vertex pair. Removing the last edge of a
/// 2-component split is allowed; make_mutant reconnects afterwards.
class EdgeFlip final : public Mutator {
 public:
  std::string_view name() const override { return "edge_flip"; }
  bool apply(Graph& g, Rng& rng, std::size_t, std::string* detail) const override {
    const std::size_t n = g.vertex_count();
    if (n < 2) return false;
    Vertex u = static_cast<Vertex>(rng.below(n));
    Vertex v = static_cast<Vertex>(rng.below(n - 1));
    if (v >= u) ++v;
    g.toggle_edge(u, v);
    *detail = "flip " + vertex_pair(std::min(u, v), std::max(u, v));
    return true;
  }
};

/// Local complementation at a random non-isolated vertex. On graph states
/// this is a free (single-qubit) basis change, so it walks the LC orbit —
/// exactly the space the partition search explores, from the outside.
class LcMove final : public Mutator {
 public:
  std::string_view name() const override { return "lc_move"; }
  bool apply(Graph& g, Rng& rng, std::size_t, std::string* detail) const override {
    std::vector<Vertex> live;
    for (Vertex v = 0; v < g.vertex_count(); ++v)
      if (g.degree(v) > 0) live.push_back(v);
    if (live.empty()) return false;
    const Vertex v = live[rng.pick_index(live)];
    local_complement(g, v);
    *detail = "lc @" + std::to_string(v);
    return true;
  }
};

/// Append a vertex attached to 1–3 random existing vertices.
class VertexAdd final : public Mutator {
 public:
  std::string_view name() const override { return "vertex_add"; }
  bool apply(Graph& g, Rng& rng, std::size_t max_vertices,
             std::string* detail) const override {
    const std::size_t n = g.vertex_count();
    if (n == 0 || n >= max_vertices) return false;
    const Vertex v = g.add_vertex();
    const std::size_t fanout = 1 + rng.below(std::min<std::size_t>(3, n));
    std::string joined;
    for (std::size_t i = 0; i < fanout; ++i) {
      const Vertex u = static_cast<Vertex>(rng.below(n));
      if (!g.add_edge(u, v)) continue;
      if (!joined.empty()) joined += ',';
      joined += std::to_string(u);
    }
    *detail = "add " + std::to_string(v) + " ~ {" + joined + "}";
    return true;
  }
};

/// Delete a random vertex (the survivors are renumbered by induced()).
class VertexDelete final : public Mutator {
 public:
  std::string_view name() const override { return "vertex_delete"; }
  bool apply(Graph& g, Rng& rng, std::size_t, std::string* detail) const override {
    const std::size_t n = g.vertex_count();
    if (n <= 3) return false;
    const Vertex victim = static_cast<Vertex>(rng.below(n));
    std::vector<Vertex> keep;
    keep.reserve(n - 1);
    for (Vertex v = 0; v < n; ++v)
      if (v != victim) keep.push_back(v);
    g = g.induced(keep);
    *detail = "delete " + std::to_string(victim);
    return true;
  }
};

/// Crossover splice: keep a random induced slice of the mutant, graft a
/// random slice of a fresh generator-family graph next to it, and bridge
/// the two halves with 1–3 random edges. This is how lattice/tree/waxman
/// structure leaks into mutants of other families.
class Crossover final : public Mutator {
 public:
  std::string_view name() const override { return "crossover"; }
  bool apply(Graph& g, Rng& rng, std::size_t max_vertices,
             std::string* detail) const override {
    const std::size_t n = g.vertex_count();
    if (n < 4 || max_vertices < 6) return false;
    // Keep a random ~half of the current graph.
    std::vector<Vertex> all(n);
    for (Vertex v = 0; v < n; ++v) all[v] = v;
    rng.shuffle(all);
    const std::size_t keep_count = std::max<std::size_t>(2, n / 2);
    std::vector<Vertex> keep(all.begin(), all.begin() + keep_count);
    std::sort(keep.begin(), keep.end());
    Graph mine = g.induced(keep);
    // Graft a slice of a fresh family representative.
    const std::size_t family = rng.below(seed_family_count());
    Graph donor = make_seed_graph(family, rng.below(2), rng.next());
    const std::size_t budget = max_vertices - mine.vertex_count();
    if (donor.vertex_count() > budget) {
      std::vector<Vertex> dall(donor.vertex_count());
      for (Vertex v = 0; v < donor.vertex_count(); ++v) dall[v] = v;
      rng.shuffle(dall);
      std::vector<Vertex> dkeep(dall.begin(),
                                dall.begin() + std::max<std::size_t>(2, budget));
      std::sort(dkeep.begin(), dkeep.end());
      donor = donor.induced(dkeep);
    }
    Graph merged(mine.vertex_count() + donor.vertex_count());
    splice_into(merged, mine, 0);
    splice_into(merged, donor, static_cast<Vertex>(mine.vertex_count()));
    const std::size_t bridges = 1 + rng.below(3);
    for (std::size_t i = 0; i < bridges; ++i)
      merged.add_edge(static_cast<Vertex>(rng.below(mine.vertex_count())),
                      static_cast<Vertex>(mine.vertex_count() +
                                          rng.below(donor.vertex_count())));
    g = std::move(merged);
    *detail = "splice " + std::to_string(keep_count) + "+" +
              seed_family_name(family) + "/" +
              std::to_string(g.vertex_count() - keep_count);
    return true;
  }
};

}  // namespace

const std::vector<const Mutator*>& mutator_catalog() {
  static const EdgeFlip edge_flip;
  static const LcMove lc_move;
  static const VertexAdd vertex_add;
  static const VertexDelete vertex_delete;
  static const Crossover crossover;
  static const std::vector<const Mutator*> catalog = {
      &edge_flip, &lc_move, &vertex_add, &vertex_delete, &crossover};
  return catalog;
}

// ---- seed families ---------------------------------------------------------

namespace {
constexpr const char* kFamilies[] = {
    "lattice",  "balanced_tree", "random_tree", "waxman", "erdos_renyi",
    "ring",     "star",          "repeater",    "linear"};
}

std::size_t seed_family_count() { return std::size(kFamilies); }

std::string seed_family_name(std::size_t family) {
  EPG_REQUIRE(family < seed_family_count(), "seed family index out of range");
  return kFamilies[family];
}

Graph make_seed_graph(std::size_t family, std::size_t size_class,
                      std::uint64_t seed) {
  EPG_REQUIRE(family < seed_family_count(), "seed family index out of range");
  const std::size_t s = size_class % 3;  // small / medium / large
  Graph g;
  switch (family) {
    case 0: g = make_lattice(2 + s, 3 + s); break;
    case 1: g = make_balanced_tree(2 + s % 2, 2 + s / 2); break;
    case 2: g = make_random_tree(8 + 4 * s, seed ^ 0xA5, 3); break;
    case 3: g = make_waxman(10 + 4 * s, seed ^ 0x5A); break;
    case 4: g = make_erdos_renyi(8 + 4 * s, 0.3, seed ^ 0xC3); break;
    case 5: g = make_ring(5 + 3 * s); break;
    case 6: g = make_star(5 + 3 * s); break;
    case 7: g = make_repeater_graph_state(2 + s); break;
    default: g = make_linear_cluster(6 + 4 * s); break;
  }
  Rng rng(seed ^ 0x5EEDF00D);
  reconnect(g, rng);  // erdos_renyi may come out disconnected
  return shuffle_labels(g, seed);
}

// ---- mutant derivation -----------------------------------------------------

std::size_t reconnect(Graph& g, Rng& rng) {
  const auto components = g.connected_components();
  std::size_t added = 0;
  for (std::size_t c = 1; c < components.size(); ++c) {
    const auto& prev = components[c - 1];
    const auto& cur = components[c];
    if (g.add_edge(prev[rng.pick_index(prev)], cur[rng.pick_index(cur)]))
      ++added;
  }
  return added;
}

MutantSpec make_mutant(const Graph& base, std::string origin,
                       std::size_t mutations, std::size_t max_vertices,
                       Rng& rng) {
  EPG_REQUIRE(base.vertex_count() >= 3, "mutant seeds need >= 3 vertices");
  MutantSpec spec;
  spec.graph = base;
  spec.origin = std::move(origin);
  const auto& catalog = mutator_catalog();
  for (std::size_t m = 0; m < mutations; ++m) {
    // A mutator may decline (e.g. vertex_add at the size cap); try a few.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Mutator* mut = catalog[rng.pick_index(catalog)];
      std::string detail;
      if (!mut->apply(spec.graph, rng, max_vertices, &detail)) continue;
      spec.trace.push_back({std::string(mut->name()), std::move(detail)});
      break;
    }
    const std::size_t bridges = reconnect(spec.graph, rng);
    if (bridges > 0)
      spec.trace.push_back(
          {"reconnect", std::to_string(bridges) + " bridge edge(s)"});
  }
  return spec;
}

}  // namespace epg::fuzz
