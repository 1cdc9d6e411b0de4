// Search-state dedup for the LC + partition co-searches.
//
// A candidate graph is discarded when its Graph::fingerprint(), edge count
// and labelled degree-sequence hash all match a graph seen before. The set
// keeps only those three words per candidate, not the graph, so it cannot
// tell apart two distinct graphs that agree on all three: the second one
// is pruned as seen. A 64-bit fingerprint collision alone does not prune
// (the edge count or the degree hash still has to match), which makes a
// wrong prune rare, not impossible. A wrong prune costs the search one
// unexplored candidate; it never makes a returned partition invalid.
//
// Storage is a flat open table (power-of-two bucket heads + one
// contiguous entry pool with intra-bucket chain links) instead of an
// unordered_map<fingerprint, vector<Confirm>>: one allocation amortized
// over all inserts, no per-bucket heap vectors, and reserve() lets
// callers pre-size from their candidate budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace epg {

class GraphSeenSet {
 public:
  /// Pre-size for an expected number of distinct graphs so the early
  /// inserts skip rehash churn.
  void reserve(std::size_t expected) {
    pool_.reserve(expected);
    rehash_to_fit(expected);
  }

  /// True when `g` is new; false when a matching graph was seen before.
  bool insert(const Graph& g) {
    rehash_to_fit(pool_.size() + 1);
    Entry e{g.fingerprint(), g.edge_count(), degree_sequence_hash(g), kEnd};
    const std::size_t b = bucket_of(e.fp);
    for (std::uint32_t i = heads_[b]; i != kEnd; i = pool_[i].next) {
      const Entry& s = pool_[i];
      if (s.fp == e.fp && s.edges == e.edges && s.deg_hash == e.deg_hash)
        return false;
    }
    e.next = heads_[b];
    heads_[b] = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(e);
    return true;
  }

  std::size_t size() const { return pool_.size(); }

 private:
  static constexpr std::uint32_t kEnd = ~0u;
  struct Entry {
    std::uint64_t fp = 0;
    std::size_t edges = 0;
    std::uint64_t deg_hash = 0;
    std::uint32_t next = kEnd;  ///< chain within the bucket
  };

  static std::uint64_t degree_sequence_hash(const Graph& g) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      h ^= g.degree(v) + 0x100;
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  std::size_t bucket_of(std::uint64_t fp) const {
    // Fibonacci mixing: bucket count is a power of two, so the masked
    // index must depend on the fingerprint's high bits as well.
    return static_cast<std::size_t>((fp * 0x9E3779B97F4A7C15ULL) >> 32) &
           (heads_.size() - 1);
  }

  /// Keep the load factor at <= 1 entry per bucket head on average.
  void rehash_to_fit(std::size_t entries) {
    std::size_t cap = heads_.empty() ? 64 : heads_.size();
    while (cap < entries) cap <<= 1;
    if (cap == heads_.size()) return;
    heads_.assign(cap, kEnd);
    for (std::uint32_t i = 0; i < pool_.size(); ++i) {
      const std::size_t b = bucket_of(pool_[i].fp);
      pool_[i].next = heads_[b];
      heads_[b] = i;
    }
  }

  std::vector<std::uint32_t> heads_;  ///< power-of-two bucket heads
  std::vector<Entry> pool_;           ///< entries in insertion order
};

}  // namespace epg
