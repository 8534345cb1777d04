// Pure Monte-Carlo (d, eps_r, delta)-approximate HKPR (Section 3).

#ifndef HKPR_HKPR_MONTE_CARLO_H_
#define HKPR_HKPR_MONTE_CARLO_H_

#include <string_view>

#include "hkpr/estimator.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/params.h"
#include "hkpr/walk_kernel.h"
#include "hkpr/workspace.h"

namespace hkpr {

/// Estimates rho_s by running omega = 2(1+eps_r/3) ln(1/p'_f) / (eps_r^2
/// delta) heat-kernel walks from the seed and recording end-point
/// frequencies. This is the baseline whose walk count TEA/TEA+ reduce.
class MonteCarloEstimator : public WorkspaceEstimator {
 public:
  /// `graph` must outlive the estimator. `pf_prime` is the precomputed
  /// Equation-(6) value for `params.p_f`; negative (the default) computes
  /// it here — pass it so callers building many estimators over one graph
  /// scan it once (cf. TeaPlusEstimator).
  MonteCarloEstimator(const Graph& graph, const ApproxParams& params,
                      uint64_t seed, double pf_prime = -1.0,
                      const WalkKernelOptions& walk_kernel =
                          WalkKernelOptions());

  /// Runs the query entirely inside `ws` (end-point counts accumulate into
  /// `ws.result`) and returns a reference to `ws.result`, valid until the
  /// next query on that workspace. Allocation-free once the workspace
  /// capacities have warmed up.
  const SparseVector& EstimateInto(NodeId seed, QueryWorkspace& ws,
                                   EstimatorStats* stats = nullptr) override;

  /// Re-seeds the walk stream derivation; queries after a Reseed(s) replay
  /// the same randomness as a freshly constructed estimator with seed `s`.
  void Reseed(uint64_t seed) override {
    seed_ = seed;
    epoch_ = 0;
  }

  std::string_view name() const override { return "Monte-Carlo"; }

  /// Number of walks one query performs.
  uint64_t NumWalks() const { return num_walks_; }

 private:
  const Graph& graph_;
  ApproxParams params_;
  HeatKernel kernel_;
  WalkKernelOptions walk_kernel_;
  uint64_t num_walks_;
  uint64_t seed_;       // stream-family seed of the walks
  uint64_t epoch_ = 0;  // advances per query so repeated queries differ
};

}  // namespace hkpr

#endif  // HKPR_HKPR_MONTE_CARLO_H_
