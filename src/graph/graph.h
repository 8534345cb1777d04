// Immutable undirected graph in compressed sparse row (CSR) form.
//
// This is the substrate every algorithm in the library runs on. Graphs are
// simple (no self-loops, no parallel edges), unweighted and undirected; they
// are constructed through GraphBuilder (src/graph/graph_builder.h), loaded
// from disk (src/graph/graph_io.h) or produced by a synthetic generator
// (src/graph/generators.h).
//
// Storage model: a Graph is a cheap handle — two read-only spans over a
// shared, immutable backing payload. The payload is either heap vectors
// (FromCsr / GraphBuilder) or an mmap'd binary snapshot (MapBinary in
// graph_io.h), so a GraphStore holding many multi-million-edge graphs can
// share page-cache-backed memory across processes instead of private heap
// copies. Copying a Graph shares the payload (it is immutable); the payload
// is freed when the last Graph referencing it dies — which is what lets
// in-flight queries outlive a GraphStore::Remove().

#ifndef HKPR_GRAPH_GRAPH_H_
#define HKPR_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace hkpr {

/// Node identifier. Graphs in this library are bounded by 2^32-1 nodes.
using NodeId = uint32_t;

/// An immutable simple undirected graph in CSR layout.
///
/// `offsets()` has NumNodes()+1 entries; the neighbors of node v occupy
/// `adjacency()[offsets()[v] .. offsets()[v+1])`, sorted ascending. Every
/// edge {u, v} appears twice (u in v's list and v in u's list), so
/// offsets()[v] + i is a unique id for the arc to v's i-th neighbor.
class Graph {
 public:
  Graph() = default;

  /// Assembles a graph from raw CSR arrays. The arrays must describe a valid
  /// symmetric simple graph: offsets non-decreasing with
  /// `offsets.front() == 0`, `offsets.back() == adjacency.size()`, each
  /// adjacency row sorted, free of duplicates and self-references, and every
  /// arc paired with its reverse. Validated with CHECKs in debug builds.
  static Graph FromCsr(std::vector<uint64_t> offsets,
                       std::vector<NodeId> adjacency);

  /// Wraps externally owned CSR sections (an mmap'd binary snapshot). The
  /// spans must stay valid for as long as `storage` is alive. The caller
  /// (graph_io) is responsible for having validated the data.
  static Graph FromExternal(std::span<const uint64_t> offsets,
                            std::span<const NodeId> adjacency,
                            std::shared_ptr<const void> storage);

  /// Number of nodes n (including isolated nodes).
  uint32_t NumNodes() const {
    return offsets_.empty() ? 0 : static_cast<uint32_t>(offsets_.size() - 1);
  }

  /// Number of undirected edges m.
  uint64_t NumEdges() const { return adjacency_.size() / 2; }

  /// Total volume of the graph: sum of all degrees = 2m.
  uint64_t Volume() const { return adjacency_.size(); }

  /// Average degree 2m/n (0 for the empty graph).
  double AverageDegree() const {
    return NumNodes() == 0
               ? 0.0
               : static_cast<double>(Volume()) / static_cast<double>(NumNodes());
  }

  /// Degree of node v.
  uint32_t Degree(NodeId v) const {
    HKPR_DCHECK(v < NumNodes());
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Maximum degree over all nodes (0 for the empty graph).
  uint32_t MaxDegree() const;

  /// Neighbors of v, sorted ascending.
  std::span<const NodeId> Neighbors(NodeId v) const {
    HKPR_DCHECK(v < NumNodes());
    return {adjacency_.data() + offsets_[v], Degree(v)};
  }

  /// True if the undirected edge {u, v} exists. O(log d(u)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// A uniformly random neighbor of v. v must have positive degree.
  /// Templated on the generator (Rng or CounterRng, common/random.h).
  template <typename RngT>
  NodeId RandomNeighbor(NodeId v, RngT& rng) const {
    const uint32_t d = Degree(v);
    HKPR_DCHECK(d > 0);
    return adjacency_[offsets_[v] + rng.UniformInt(d)];
  }

  /// Cheap prefetch hint: pulls v's offsets words toward cache so a
  /// Degree() or row read issued a few dozen cycles later does not stall on
  /// DRAM. No-op outside GCC/Clang. The interleaved walk kernel issues one
  /// of these per in-flight walk per round; on graphs larger than LLC this
  /// is what turns the walk phase from latency-bound to bandwidth-bound.
  void PrefetchNode(NodeId v) const {
    HKPR_DCHECK(v < NumNodes());
#if defined(__GNUC__)
    __builtin_prefetch(&offsets_[v], 0, 1);
#endif
  }

  /// Prefetch hint for the cache line holding v's i-th neighbor (i.e. the
  /// adjacency word RandomNeighbor would read for index i). Requires v's
  /// offsets word to be resident — pair with an earlier PrefetchNode(v).
  void PrefetchNeighbors(NodeId v, uint32_t i = 0) const {
    HKPR_DCHECK(v < NumNodes());
    HKPR_DCHECK(i < Degree(v) || Degree(v) == 0);
#if defined(__GNUC__)
    __builtin_prefetch(&adjacency_[offsets_[v] + i], 0, 1);
#endif
  }

  /// Sum of degrees over a set of nodes.
  template <typename Container>
  uint64_t VolumeOf(const Container& nodes) const {
    uint64_t vol = 0;
    for (NodeId v : nodes) vol += Degree(v);
    return vol;
  }

  /// Bytes of the CSR sections this graph reads (for Figure 5 memory
  /// accounting). For an mmap-backed graph these bytes are page-cache-backed
  /// and shared, not private heap — see mmap_backed().
  size_t MemoryBytes() const {
    return offsets_.size_bytes() + adjacency_.size_bytes();
  }

  /// The prefix-degree array (NumNodes()+1 entries, id order).
  std::span<const uint64_t> offsets() const { return offsets_; }
  /// The adjacency arcs (2m entries), rows in node-id order.
  std::span<const NodeId> adjacency() const { return adjacency_; }

  /// True when the backing payload is an mmap'd file region rather than
  /// private heap vectors.
  bool mmap_backed() const { return mmap_backed_; }

 private:
  struct OwnedStorage;

  /// Keeps the spans' backing memory alive: OwnedStorage for heap graphs,
  /// the mapped-file region for mmap graphs. Shared between copies.
  std::shared_ptr<const void> storage_;
  std::span<const uint64_t> offsets_;
  std::span<const NodeId> adjacency_;
  bool mmap_backed_ = false;
};

}  // namespace hkpr

#endif  // HKPR_GRAPH_GRAPH_H_
