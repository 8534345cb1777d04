#include "clustering/local_cluster.h"

#include <utility>

#include "common/timer.h"

namespace hkpr {

LocalClusterResult LocalCluster(const Graph& graph,
                                WorkspaceEstimator& estimator, NodeId seed,
                                const SweepOptions& sweep_options) {
  LocalClusterResult out;
  WallTimer total;

  WallTimer estimate_timer;
  SparseVector rho = estimator.Estimate(seed, &out.stats);
  out.estimate_ms = estimate_timer.ElapsedMillis();

  WallTimer sweep_timer;
  SweepResult sweep = SweepCut(graph, rho, sweep_options);
  out.sweep_ms = sweep_timer.ElapsedMillis();

  out.cluster = std::move(sweep.cluster);
  out.conductance = sweep.conductance;
  out.support_size = sweep.support_size;
  out.total_ms = total.ElapsedMillis();
  return out;
}

}  // namespace hkpr
