// Side-by-side accuracy/cost comparison of every HKPR estimator in the
// library on the same query, with exact ground truth from the power method.

#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/cluster_hkpr.h"
#include "baselines/hk_relax.h"
#include "clustering/metrics.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/power_method.h"
#include "hkpr/tea.h"
#include "hkpr/tea_plus.h"

using namespace hkpr;

int main() {
  const Graph graph = PowerlawCluster(30000, 5, 0.3, 9);
  const NodeId seed = 100;
  std::printf("graph: %u nodes, %llu edges; seed %u (degree %u)\n",
              graph.NumNodes(),
              static_cast<unsigned long long>(graph.NumEdges()), seed,
              graph.Degree(seed));

  std::printf("computing exact HKPR (power method)...\n");
  std::vector<double> exact = ExactHkpr(graph, 5.0, seed);
  std::vector<double> exact_normalized = exact;
  NormalizeByDegree(graph, exact_normalized);

  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1.0 / graph.NumNodes();
  params.p_f = 1e-6;

  MonteCarloEstimator mc(graph, params, 1);
  TeaEstimator tea(graph, params, 2);
  TeaPlusEstimator tea_plus(graph, params, 3);
  HkRelaxOptions relax_options;
  relax_options.eps_a = params.eps_r * params.delta;  // same absolute budget
  HkRelaxEstimator relax(graph, relax_options);

  std::printf("\n%-12s %10s %10s %12s %10s %12s\n", "algorithm", "time",
              "support", "max |err|/d", "NDCG@200", "violations");
  std::vector<WorkspaceEstimator*> estimators = {&mc, &tea, &tea_plus, &relax};
  for (WorkspaceEstimator* est : estimators) {
    EstimatorStats stats;
    WallTimer timer;
    SparseVector rho = est->Estimate(seed, &stats);
    const double ms = timer.ElapsedMillis();
    const double err = MaxNormalizedError(graph, rho, exact);
    const double ndcg = NdcgAtK(graph, rho, exact_normalized, 200);
    const size_t violations = CountApproxViolations(
        graph, rho, exact, params.eps_r, params.delta);
    std::printf("%-12s %8.1fms %10zu %12.2e %10.4f %12zu\n",
                std::string(est->name()).c_str(), ms, rho.nnz(), err, ndcg,
                violations);
  }

  return 0;
}
