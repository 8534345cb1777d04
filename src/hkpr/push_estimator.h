// Deterministic push-only (d, eps_r, delta)-approximation.
//
// Runs HK-Push+ with an unlimited budget and the full heat-kernel hop range
// until Inequality (11) holds with eps_a = eps_r * delta; by Theorem 2 the
// reserve alone is then a valid approximation — with failure probability 0.
// This is the "no random walks at all" corner of the paper's design space:
// its cost grows like 1/(eps_r * delta) * K instead of TEA+'s budgeted
// omega*t/2, so it loses badly at small delta, which is exactly the
// trade-off the ablation benchmark quantifies.

#ifndef HKPR_HKPR_PUSH_ESTIMATOR_H_
#define HKPR_HKPR_PUSH_ESTIMATOR_H_

#include <string_view>

#include "hkpr/estimator.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/params.h"
#include "hkpr/workspace.h"

namespace hkpr {

/// Deterministic estimator: push until the absolute-error certificate holds.
class PushOnlyEstimator : public WorkspaceEstimator {
 public:
  PushOnlyEstimator(const Graph& graph, const ApproxParams& params);

  /// Runs the query entirely inside `ws` (reserve in `ws.result`, residues
  /// in `ws.residues`) and returns a reference to `ws.result`, valid until
  /// the next query on that workspace. Allocation-free once the workspace
  /// capacities have warmed up.
  const SparseVector& EstimateInto(NodeId seed, QueryWorkspace& ws,
                                   EstimatorStats* stats = nullptr) override;

  /// Push-only is deterministic; re-seeding is a no-op.
  void Reseed(uint64_t /*seed*/) override {}

  std::string_view name() const override { return "Push-only"; }

 private:
  const Graph& graph_;
  ApproxParams params_;
  HeatKernel kernel_;
};

}  // namespace hkpr

#endif  // HKPR_HKPR_PUSH_ESTIMATOR_H_
