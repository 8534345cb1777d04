// Common interface for approximate HKPR estimators.

#ifndef HKPR_HKPR_ESTIMATOR_H_
#define HKPR_HKPR_ESTIMATOR_H_

#include <cstdint>
#include <string_view>

#include "common/sparse_vector.h"
#include "graph/graph.h"

namespace hkpr {

/// Work counters reported by one query. Benchmarks use these to
/// reproduce the paper's cost analyses (push/walk balance, Figure 5 memory).
struct EstimatorStats {
  /// Push operations, counted as in the paper: one per neighbor update
  /// (a (v,k) entry conversion costs d(v) push operations).
  uint64_t push_operations = 0;
  /// Number of (node, hop) residue entries converted.
  uint64_t entries_processed = 0;
  /// Random walks performed.
  uint64_t num_walks = 0;
  /// Total steps over all random walks.
  uint64_t walk_steps = 0;
  /// True when TEA+ returned the push result directly (Inequality 11 held).
  bool early_exit = false;
  /// Peak logical bytes of algorithm state (excludes the input graph).
  size_t peak_bytes = 0;

  void Reset() { *this = EstimatorStats{}; }
};

class QueryWorkspace;

/// An algorithm that estimates the HKPR vector of a seed node, running each
/// query inside a caller-provided reusable QueryWorkspace. Every estimator
/// is registered as a named backend (hkpr/backend.h) and served through
/// QueryExecutor / AsyncQueryService interchangeably.
///
/// Implementations are constructed with a graph reference (which must
/// outlive the estimator) and their parameters; queries may be run
/// repeatedly with different seeds. Estimators are deterministic given
/// their construction-time RNG seed and the sequence of calls.
///
/// Contract:
///  - EstimateInto() runs the query entirely inside `ws` and returns a
///    reference to `ws.result`, valid until the next query on that
///    workspace. Once the workspace capacities have warmed up, repeated
///    queries perform zero heap allocations.
///  - Reseed(s) makes subsequent queries replay the randomness of a freshly
///    constructed estimator with seed `s`. Deterministic estimators
///    implement it as a no-op, which preserves the serving layers'
///    bit-identical-per-(engine seed, query index) guarantee trivially.
class WorkspaceEstimator {
 public:
  virtual ~WorkspaceEstimator() = default;

  /// Runs the query inside `ws`; the returned reference points at
  /// `ws.result`. When `stats` is non-null it is reset and filled.
  virtual const SparseVector& EstimateInto(NodeId seed, QueryWorkspace& ws,
                                           EstimatorStats* stats = nullptr) = 0;

  /// Runs the query in a fresh workspace and moves — not copies — the
  /// result out. Allocating per call is deliberate: EstimatorStats::
  /// peak_bytes then reflects this query's sizes, not capacities warmed by
  /// earlier queries (the Figure 5 semantics). Callers that want workspace
  /// reuse call EstimateInto.
  SparseVector Estimate(NodeId seed, EstimatorStats* stats = nullptr);

  /// Re-seeds the estimator's RNG stream (no-op when deterministic).
  virtual void Reseed(uint64_t seed) = 0;

  /// Short algorithm name for reports ("TEA+", "HK-Relax", ...).
  virtual std::string_view name() const = 0;
};

}  // namespace hkpr

#endif  // HKPR_HKPR_ESTIMATOR_H_
