// HK-Relax (Kloster & Gleich, "Heat Kernel Based Community Detection",
// KDD 2014) — the state-of-the-art deterministic baseline the paper
// compares against.
//
// HK-Relax truncates the Taylor expansion of exp(tP) at degree N and relaxes
// the residuals of the blocks v_j = (t^j / j!) P^j e_s with a queue-driven
// push procedure. The per-entry push threshold involves the factor e^t,
// which is where the e^t term in its O(t e^t log(1/eps)/eps) complexity
// comes from (Table 1). Guarantee: |rho_hat[v] - rho[v]| / d(v) <= eps_a for
// every node.

#ifndef HKPR_BASELINES_HK_RELAX_H_
#define HKPR_BASELINES_HK_RELAX_H_

#include <string_view>

#include "hkpr/estimator.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/workspace.h"

namespace hkpr {

/// Options of HK-Relax.
struct HkRelaxOptions {
  /// Heat constant t.
  double t = 5.0;
  /// Absolute degree-normalized error threshold eps_a.
  double eps_a = 1e-4;
};

/// Deterministic push-based HKPR approximation with an absolute
/// degree-normalized error guarantee.
class HkRelaxEstimator : public WorkspaceEstimator {
 public:
  HkRelaxEstimator(const Graph& graph, const HkRelaxOptions& options);

  /// Workspace-aware variant: runs the query entirely inside `ws` (the
  /// residue table holds the per-level Taylor residuals, `ws.starts` backs
  /// the push queue) and returns a reference to `ws.result`, valid until the
  /// next query on that workspace. Allocation-free once the workspace
  /// capacities have warmed up, so serving frontends can offer HK-Relax
  /// under the same reuse contract as TEA+.
  const SparseVector& EstimateInto(NodeId seed, QueryWorkspace& ws,
                                   EstimatorStats* stats = nullptr) override;

  /// HK-Relax is deterministic; re-seeding is a no-op.
  void Reseed(uint64_t /*seed*/) override {}

  std::string_view name() const override { return "HK-Relax"; }

  /// Taylor truncation degree N (tail mass e^{-t} sum_{k>N} t^k/k! <= eps/2).
  uint32_t taylor_degree() const { return taylor_degree_; }

 private:
  const Graph& graph_;
  HkRelaxOptions options_;
  HeatKernel kernel_;
  uint32_t taylor_degree_;
  std::vector<double> psis_;  // psis_[j] = sum_{i=0}^{N-j} t^i j!/(j+i)!
};

}  // namespace hkpr

#endif  // HKPR_BASELINES_HK_RELAX_H_
