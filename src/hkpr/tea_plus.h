// TEA+ (Algorithm 5): budgeted HK-Push+ with residue reduction.

#ifndef HKPR_HKPR_TEA_PLUS_H_
#define HKPR_HKPR_TEA_PLUS_H_

#include <string_view>

#include "hkpr/estimator.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/params.h"
#include "hkpr/residue.h"
#include "hkpr/walk_kernel.h"
#include "hkpr/workspace.h"

namespace hkpr {

/// How TEA+ distributes the residue-reduction budget over hops.
enum class BetaMode {
  /// beta_k proportional to the hop's residue sum (the paper's choice,
  /// Algorithm 5 Line 9).
  kProportionalToHopSum,
  /// beta_k = 1/(K+1) uniformly (ablation only; shows why the paper's
  /// choice matters).
  kUniform,
};

/// Tuning options of TEA+ beyond the accuracy parameters.
struct TeaPlusOptions {
  /// Hop-cap constant: K = c * log(1/(eps_r*delta)) / log(avg_degree).
  /// The paper tunes this in Section 7.2 and settles on 2.5.
  double c = 2.5;
  /// Residue reduction before the walk phase (Lines 8-11). Disabled only by
  /// the ablation benchmark.
  bool enable_residue_reduction = true;
  /// Early termination of HK-Push+ via Inequality (11). Disabled only by the
  /// ablation benchmark.
  bool enable_early_exit = true;
  /// HK-Push+ keeps draining past the hop cap K while Inequality (11) fails
  /// (HkPushPlusOptions::drain_past_hop_cap), so seeds whose residue at hop
  /// K blocks the test get a push-only answer instead of alpha*omega walks.
  /// Off is the paper's hard cap; the shipped server turns it on.
  bool drain_past_hop_cap = false;
  BetaMode beta_mode = BetaMode::kProportionalToHopSum;
  /// Walk-phase interleave width (hkpr/walk_kernel.h).
  WalkKernelOptions walk_kernel;
};

/// The paper's flagship algorithm. Same guarantee as TEA (Theorem 3) with
/// far less practical work: HK-Push+ runs under a push budget n_p = omega*t/2
/// and a hop cap K; if the absolute-error test (11) passes the reserve is
/// returned immediately, otherwise residues are reduced by
/// beta_k * eps_r * delta * d(u) before the walk phase and the final vector
/// gets a +eps_r*delta/2 * d(v) offset (stored as a scalar, O(1)).
class TeaPlusEstimator : public WorkspaceEstimator {
 public:
  /// `pf_prime` is the precomputed Equation-(6) value for `params.p_f`;
  /// negative (the default) computes it here. ComputePfPrime is an O(n)
  /// scan the paper notes is done once when the graph is loaded; pass it to
  /// avoid re-scanning when constructing many estimators over one graph
  /// (e.g. one per service worker).
  TeaPlusEstimator(const Graph& graph, const ApproxParams& params,
                   uint64_t seed,
                   const TeaPlusOptions& options = TeaPlusOptions(),
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

  std::string_view name() const override { return "TEA+"; }

  double omega() const { return omega_; }
  uint32_t hop_cap() const { return hop_cap_; }
  uint64_t push_budget() const { return push_budget_; }

 private:
  const Graph& graph_;
  ApproxParams params_;
  TeaPlusOptions options_;
  HeatKernel kernel_;
  double omega_;
  uint32_t hop_cap_;
  uint64_t push_budget_;
  uint64_t seed_;       // stream-family seed of the walk phase
  uint64_t epoch_ = 0;  // advances per query so repeated queries differ
};

/// Algorithm 5 Lines 8-11: lowers each residue r_k[u] by
/// beta_k * eps_delta * d(u) (beta per `options.beta_mode`) and recomputes
/// the hop sums. No-op on an empty table.
void ReduceResidues(const Graph& graph, const TeaPlusOptions& options,
                    double eps_delta, ResidueTable& residues);

}  // namespace hkpr

#endif  // HKPR_HKPR_TEA_PLUS_H_
