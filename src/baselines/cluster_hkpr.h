// ClusterHKPR (Chung & Simpson, "Computing Heat Kernel PageRank and a Local
// Clustering Algorithm", IWOCA 2014) — the pure random-walk baseline with
// the 16 log(n) / eps^3 walk count.

#ifndef HKPR_BASELINES_CLUSTER_HKPR_H_
#define HKPR_BASELINES_CLUSTER_HKPR_H_

#include <string_view>

#include "common/random.h"
#include "hkpr/estimator.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/workspace.h"

namespace hkpr {

/// Options of ClusterHKPR.
struct ClusterHkprOptions {
  /// Heat constant t.
  double t = 5.0;
  /// Error parameter eps of the (1+eps)/eps guarantee.
  double eps = 0.05;
  /// Hard cap on the number of walks. The theoretical count
  /// 16 log(n)/eps^3 explodes for small eps (the paper omits such data
  /// points because they take hours); the cap keeps sweeps feasible.
  uint64_t max_walks = 200'000'000;
  /// Walk-length cap K from the original analysis; 0 = use the heat-kernel
  /// table bound (no practical truncation).
  uint32_t length_cap = 0;
};

/// Monte-Carlo HKPR with the Chung-Simpson walk count and length cap.
/// Reseed() replays the randomness of a freshly constructed estimator, so
/// the baseline registers in the EstimatorRegistry ("cluster-hkpr") and
/// serves through every query frontend.
class ClusterHkprEstimator : public WorkspaceEstimator {
 public:
  ClusterHkprEstimator(const Graph& graph, const ClusterHkprOptions& options,
                       uint64_t seed);

  /// Runs the query entirely inside `ws` (end-point counts accumulate into
  /// `ws.result`) and returns a reference to `ws.result`, valid until the
  /// next query on that workspace. Allocation-free once the workspace
  /// capacities have warmed up.
  const SparseVector& EstimateInto(NodeId seed, QueryWorkspace& ws,
                                   EstimatorStats* stats = nullptr) override;

  /// Re-seeds the walk RNG; queries after a Reseed(s) replay the same
  /// randomness as a freshly constructed estimator with seed `s`.
  void Reseed(uint64_t seed) override { rng_.Reseed(seed); }

  std::string_view name() const override { return "ClusterHKPR"; }

  uint64_t NumWalks() const { return num_walks_; }

 private:
  const Graph& graph_;
  ClusterHkprOptions options_;
  HeatKernel kernel_;
  uint64_t num_walks_;
  uint32_t length_cap_;
  Rng rng_;
};

}  // namespace hkpr

#endif  // HKPR_BASELINES_CLUSTER_HKPR_H_
