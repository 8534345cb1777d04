// End-to-end local clustering: estimate HKPR, then sweep.

#ifndef HKPR_CLUSTERING_LOCAL_CLUSTER_H_
#define HKPR_CLUSTERING_LOCAL_CLUSTER_H_

#include <vector>

#include "clustering/sweep.h"
#include "graph/graph.h"
#include "hkpr/estimator.h"

namespace hkpr {

/// Everything one local-clustering query produced.
struct LocalClusterResult {
  std::vector<NodeId> cluster;
  double conductance = 1.0;
  size_t support_size = 0;
  EstimatorStats stats;      ///< estimator work counters
  double estimate_ms = 0.0;  ///< HKPR estimation wall time
  double sweep_ms = 0.0;     ///< sweep wall time
  double total_ms = 0.0;
};

/// Runs `estimator` on `seed` and sweeps the resulting vector, timing both
/// phases. This is the operation the paper's Figures 4/7/8/9 measure.
LocalClusterResult LocalCluster(const Graph& graph,
                                WorkspaceEstimator& estimator, NodeId seed,
                                const SweepOptions& sweep_options = {});

}  // namespace hkpr

#endif  // HKPR_CLUSTERING_LOCAL_CLUSTER_H_
