// Reusable per-query scratch state for the HKPR estimators.
//
// Every query needs the same family of buffers: a reserve/result
// vector, a multi-hop residue table with its node-indexed push frontier,
// the push list of the hop being drained, flattened walk-start arrays
// with their alias table, and the per-walk end-node buffer. Allocating
// these afresh per query is the dominant fixed cost of small queries; a
// QueryWorkspace owns all of them and is reset — never reallocated —
// between queries, so a steady-state query stream performs zero heap
// allocations (verified by the workspace tests with the AllocCounters hook
// in common/mem_tracker.h).
// The frontier is sized to the node count of the largest graph the
// workspace has served, so one workspace can move between graphs; it only
// allocates when a larger graph arrives.
//
// A workspace is not thread-safe; the intended pattern is one workspace per
// serving thread (see QueryExecutor in hkpr/queries.h).

#ifndef HKPR_HKPR_WORKSPACE_H_
#define HKPR_HKPR_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/alias_sampler.h"
#include "common/sparse_vector.h"
#include "graph/graph.h"
#include "hkpr/residue.h"

namespace hkpr {

/// All scratch state one query needs, reusable across queries.
class QueryWorkspace {
 public:
  QueryWorkspace() = default;

  /// The estimate under construction. HK-Push writes the reserve here, the
  /// walk phase accumulates into it, and EstimateInto() returns a reference
  /// to it — valid until the next query on this workspace.
  SparseVector result;

  /// Residue table for the push phase, including the node-indexed frontier
  /// (8 bytes per node); Reset() between queries. Sealed whenever a push
  /// routine returns.
  ResidueTable residues{0};

  /// Positions of the entries the push drains next, in entry order; filled
  /// by ResidueTable::SealFrontier(graph, threshold, push_list). hk-relax
  /// reuses it as a node-indexed array of first-touch positions at the
  /// level receiving residue.
  std::vector<uint32_t> push_list;

  /// Flattened positive residue entries (node, hop) and their weights, the
  /// alias sampler's input. hk-relax reuses `starts` as its FIFO queue of
  /// (entry position, Taylor level).
  std::vector<std::pair<NodeId, uint32_t>> starts;
  std::vector<double> weights;

  /// Alias table over `weights`; rebuilt (allocation-free at steady state)
  /// per query that reaches the walk phase.
  AliasSampler alias;

  /// Per-walk end nodes, written by the interleaved walk kernel (one entry
  /// per walk, indexed by walk number) and accumulated into `result` in
  /// index order afterwards — which is what makes the accumulated estimate
  /// independent of interleave width. Capacity is retained across queries.
  std::vector<NodeId> walk_ends;

  /// Clears the single-query state. Capacities are retained.
  void PrepareQuery(uint32_t max_hop) {
    result.Clear();
    residues.Reset(max_hop);
    starts.clear();
    weights.clear();
  }

  /// Fills `starts`/`weights` from the positive entries of `residues` and
  /// builds the alias table. Returns the number of start entries.
  size_t CollectWalkStarts();

  /// Approximate heap bytes held by all buffers (for memory accounting).
  size_t MemoryBytes() const;
};

}  // namespace hkpr

#endif  // HKPR_HKPR_WORKSPACE_H_
