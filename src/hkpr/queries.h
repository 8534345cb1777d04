// Higher-level HKPR query helpers built on the estimator interface:
// top-k proximity queries, seed-set (multi-seed) estimation, and the
// per-worker QueryExecutor a serving frontend runs queries through.

#ifndef HKPR_HKPR_QUERIES_H_
#define HKPR_HKPR_QUERIES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/sparse_vector.h"
#include "graph/graph.h"
#include "hkpr/backend.h"
#include "hkpr/estimator.h"
#include "hkpr/router.h"
#include "hkpr/workspace.h"

namespace hkpr {

/// A node with its normalized HKPR score.
struct ScoredNode {
  NodeId node;
  double score;  ///< rho_hat[v] / d(v), including any degree offset
};

/// The k nodes with the largest normalized HKPR in `estimate`, descending
/// (ties broken by node id). Isolated nodes are skipped. O(nnz log k).
std::vector<ScoredNode> TopKNormalized(const Graph& graph,
                                       const SparseVector& estimate,
                                       size_t k);

/// Convenience: run `estimator` on `seed` and return the top-k ranking.
std::vector<ScoredNode> TopKQuery(const Graph& graph,
                                  WorkspaceEstimator& estimator, NodeId seed,
                                  size_t k);

/// HKPR of a *seed distribution*: rho = sum_i weights[i] * rho_{seeds[i]}.
/// HKPR is linear in its seed vector (Equation 2), so the weighted average
/// of per-seed estimates is an estimate for the distribution with the same
/// per-seed guarantees. Weights must be non-negative; they are normalized
/// to sum to 1. Empty weights mean uniform.
SparseVector EstimateSeedSet(const Graph& graph,
                             WorkspaceEstimator& estimator,
                             std::span<const NodeId> seeds,
                             std::span<const double> weights = {});

/// Mixes an engine seed with a query's global index into an independent RNG
/// stream (SplitMix64-style finalizer). Every QueryExecutor re-seeds with it,
/// so the randomness a query draws is a function of (engine seed, query
/// index) alone: any executor answering "query #i" with the same engine
/// seed, on any worker, produces bit-identical estimates.
uint64_t QueryRngSeed(uint64_t base_seed, uint64_t query_index);

/// One serving thread's worth of query state: registry-built backend
/// estimators plus one reusable QueryWorkspace. Answer() re-seeds the
/// estimator from (base_seed, query_index) and runs the query inside the
/// workspace, so steady-state answers are allocation-free apart from the
/// returned copy. For deterministic backends the re-seed is a no-op and
/// answers are exactly the direct estimator's.
///
/// The executor is *plan-aware*: it is constructed with a default
/// BackendSpec (built eagerly, as before) and lazily builds one estimator
/// per distinct QueryPlan it is asked to execute — a routed/overridden
/// query pays the estimator construction once per (worker, plan) and is
/// allocation-free afterwards. All plans share the one workspace, which is
/// fully reset per query, so answers depend only on
/// (plan, engine seed, query index): executing a plan here is bit-identical
/// to a dedicated executor constructed directly on that plan's backend and
/// params with the same engine seed.
///
/// Each AsyncQueryService worker (src/service/) owns one executor, so a
/// query answered by the service is bit-identical, per backend, to one
/// executor answering the same queries in submission order.
class QueryExecutor {
 public:
  /// Builds `spec`'s backend over `graph` via the global EstimatorRegistry
  /// (check-fails on unknown names; Find() first for a graceful path). When
  /// constructing many executors over one graph, resolve the spec once with
  /// ResolvedSpec() so shared precomputations (p'_f) are not re-scanned.
  QueryExecutor(const Graph& graph, const ApproxParams& params,
                uint64_t base_seed, const BackendSpec& spec = {});

  /// Answers query number `query_index` on the default plan inside the
  /// reusable workspace. The returned reference is valid until the next
  /// Answer* call.
  const SparseVector& AnswerInto(NodeId seed, uint64_t query_index);

  /// Answers on an explicit plan (routed or overridden query). The plan's
  /// backend must be registered; its estimator is built on first use and
  /// reused afterwards.
  const SparseVector& AnswerInto(NodeId seed, uint64_t query_index,
                                 const QueryPlan& plan);

  /// AnswerInto() + CompactCopy(), for results that outlive the workspace.
  SparseVector Answer(NodeId seed, uint64_t query_index);
  SparseVector Answer(NodeId seed, uint64_t query_index,
                      const QueryPlan& plan);

  /// The fully resolved default plan (spec backend + construction params).
  const QueryPlan& default_plan() const { return default_plan_; }

  /// The default backend's algorithm name ("TEA+", "HK-Relax", ...).
  std::string_view backend_name() const {
    return estimators_.front().estimator->name();
  }

  /// The registry's stable id for the default backend (cache-key material).
  uint32_t backend_id() const { return default_plan_.backend_id; }

  /// Distinct plans this executor currently holds estimators for (>= 1;
  /// the default plan is built at construction). Observability for tests
  /// and stats: a backend switch shows up as +1 here, never as a rebuild.
  size_t num_plan_estimators() const { return estimators_.size(); }

  /// Retained plan estimators per executor. The default plan is pinned;
  /// the least-recently-used non-default plan is evicted beyond this, so a
  /// client spraying distinct parameter overrides cannot grow worker
  /// memory without bound. Eviction never affects results: estimator
  /// construction is deterministic and every query re-seeds from (engine
  /// seed, query index), so a rebuilt plan answers bit-identically.
  static constexpr size_t kMaxPlanEstimators = 16;

 private:
  /// Identity of a plan for estimator reuse: backend plus the bit patterns
  /// of every parameter an estimator bakes in at construction (bitwise so
  /// the match is exact, cf. ResultCacheKey).
  struct PlanKey {
    uint32_t backend_id = 0;
    uint64_t t_bits = 0;
    uint64_t eps_r_bits = 0;
    uint64_t delta_bits = 0;
    uint64_t p_f_bits = 0;
    bool operator==(const PlanKey&) const = default;
  };
  static PlanKey KeyOf(uint32_t backend_id, const ApproxParams& params);

  struct PlanEstimator {
    PlanKey key;
    std::unique_ptr<WorkspaceEstimator> estimator;
  };

  /// The estimator for `plan`, built on first use (check-fails when the
  /// plan names an unregistered backend — resolution upstream guarantees
  /// it never does).
  WorkspaceEstimator& EstimatorFor(const QueryPlan& plan);

  /// p'_f (Equation 6) for `p_f`, memoized: the spec's resolved value when
  /// provided, computed once (an O(n) scan) otherwise — shared by every
  /// randomized backend this executor lazily builds.
  double PfPrimeFor(double p_f);

  const SparseVector& Run(WorkspaceEstimator& estimator, NodeId seed,
                          uint64_t query_index);

  const Graph& graph_;
  uint64_t base_seed_;
  /// Shared tuning for lazily built backends (the default spec's context).
  BackendContext context_;
  double memo_pf_ = 0.0;        // p_f the memoized p'_f belongs to
  double memo_pf_prime_ = -1.0; // < 0 = not yet computed
  QueryPlan default_plan_;
  std::vector<PlanEstimator> estimators_;  // [0] = the default plan's
  QueryWorkspace workspace_;
};

}  // namespace hkpr

#endif  // HKPR_HKPR_QUERIES_H_
