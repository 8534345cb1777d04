// TEA (Algorithm 3): HK-Push followed by residue-guided random walks.

#ifndef HKPR_HKPR_TEA_H_
#define HKPR_HKPR_TEA_H_

#include <string_view>

#include "hkpr/estimator.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/params.h"
#include "hkpr/walk_kernel.h"
#include "hkpr/workspace.h"

namespace hkpr {

/// Tuning options of TEA beyond the accuracy parameters.
struct TeaOptions {
  /// The residue threshold is r_max = r_max_scale / (omega * t); the paper
  /// sets r_max = O(1/(omega t)) and tunes the constant per dataset to
  /// balance push and walk cost (Section 7.3). 1.0 is a solid default.
  double r_max_scale = 1.0;
  /// Walk-phase interleave width (hkpr/walk_kernel.h).
  WalkKernelOptions walk_kernel;
};

/// Two-phase heat kernel approximation, first-cut version.
///
/// Runs HK-Push with threshold r_max to get a reserve vector q_s and residue
/// vectors, then draws alpha*omega walks whose start entries (u, k) are
/// sampled from the residues through an alias structure, adding alpha/n_r
/// per walk end-point (Theorem 1 guarantees (d,eps_r,delta)-approximation
/// with probability >= 1 - p_f).
class TeaEstimator : public WorkspaceEstimator {
 public:
  /// `pf_prime` is the precomputed Equation-(6) value for `params.p_f`;
  /// negative (the default) computes it here — pass it so callers building
  /// many estimators over one graph scan it once (cf. TeaPlusEstimator).
  TeaEstimator(const Graph& graph, const ApproxParams& params, uint64_t seed,
               const TeaOptions& options = TeaOptions(),
               double pf_prime = -1.0);

  /// Runs the query entirely inside `ws` and returns a reference to
  /// `ws.result` (valid until the next query on that workspace).
  /// Allocation-free once the workspace capacities have warmed up.
  const SparseVector& EstimateInto(NodeId seed, QueryWorkspace& ws,
                                   EstimatorStats* stats = nullptr) override;

  /// Re-seeds the walk-phase stream derivation; queries after a Reseed(s)
  /// replay the same randomness as a freshly constructed estimator with
  /// seed `s`.
  void Reseed(uint64_t seed) override {
    seed_ = seed;
    epoch_ = 0;
  }

  std::string_view name() const override { return "TEA"; }

  /// The omega (walk-count scale) this estimator computed from its params.
  double omega() const { return omega_; }
  /// The push threshold in use.
  double r_max() const { return r_max_; }

 private:
  const Graph& graph_;
  ApproxParams params_;
  TeaOptions options_;
  HeatKernel kernel_;
  double omega_;
  double r_max_;
  uint64_t seed_;       // stream-family seed of the walk phase
  uint64_t epoch_ = 0;  // advances per query so repeated queries differ
};

}  // namespace hkpr

#endif  // HKPR_HKPR_TEA_H_
