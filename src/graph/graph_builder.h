// Mutable edge-list accumulator that produces immutable CSR graphs.

#ifndef HKPR_GRAPH_GRAPH_BUILDER_H_
#define HKPR_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "graph/graph.h"

namespace hkpr {

/// The largest node id a graph can hold: the node count, one past it, must
/// be a NodeId too.
inline constexpr NodeId kMaxNodeId = 0xFFFFFFFEu;

/// Accumulates undirected edges and finalizes them into a simple CSR Graph.
///
/// The builder tolerates duplicate edges, self-loops and arbitrary insertion
/// order; Build() symmetrizes, sorts, deduplicates and strips self-loops.
/// Node count is the maximum of the declared count and 1 + the largest id
/// seen, so isolated tail nodes can be declared up front.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Declares at least `num_nodes` nodes (ids 0..num_nodes-1).
  explicit GraphBuilder(uint32_t num_nodes) : num_nodes_(num_nodes) {}

  /// Reserves capacity for `num_edges` undirected edges.
  void ReserveEdges(size_t num_edges) { edges_.reserve(num_edges); }

  /// Adds the undirected edge {u, v}. Self-loops and duplicates are accepted
  /// here and removed by Build(). Both ids must be at most kMaxNodeId.
  void AddEdge(NodeId u, NodeId v) {
    const NodeId hi = u > v ? u : v;
    HKPR_CHECK(hi <= kMaxNodeId) << "node id " << hi;
    edges_.push_back({u, v});
    if (hi >= num_nodes_) num_nodes_ = hi + 1;
  }

  /// Ensures the node count is at least `num_nodes`.
  void EnsureNodes(uint32_t num_nodes) {
    if (num_nodes > num_nodes_) num_nodes_ = num_nodes;
  }

  /// Number of raw (pre-dedup) undirected edges added so far.
  size_t NumPendingEdges() const { return edges_.size(); }

  uint32_t NumNodes() const { return num_nodes_; }

  /// Finalizes into a simple undirected CSR graph. The builder is left empty.
  Graph Build();

 private:
  struct RawEdge {
    NodeId u, v;
  };

  uint32_t num_nodes_ = 0;
  std::vector<RawEdge> edges_;
};

}  // namespace hkpr

#endif  // HKPR_GRAPH_GRAPH_BUILDER_H_
