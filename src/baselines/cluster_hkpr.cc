#include "baselines/cluster_hkpr.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hkpr {

ClusterHkprEstimator::ClusterHkprEstimator(const Graph& graph,
                                           const ClusterHkprOptions& options,
                                           uint64_t seed)
    : graph_(graph), options_(options), kernel_(options.t), rng_(seed) {
  HKPR_CHECK(options.eps > 0.0 && options.eps < 1.0);
  // log(n) is taken at n >= 2 so a one-node graph still draws walks (each
  // ends at the seed), and the cap applies in double: the theoretical
  // count can exceed the uint64_t range at tiny eps.
  const double n = std::max(static_cast<double>(graph.NumNodes()), 2.0);
  const double theoretical =
      16.0 * std::log(n) / (options.eps * options.eps * options.eps);
  num_walks_ = theoretical < static_cast<double>(options.max_walks)
                   ? static_cast<uint64_t>(std::ceil(theoretical))
                   : options.max_walks;
  HKPR_CHECK(num_walks_ > 0);
  length_cap_ = options.length_cap == 0
                    ? kernel_.MaxHop()
                    : std::min(options.length_cap, kernel_.MaxHop());
}

const SparseVector& ClusterHkprEstimator::EstimateInto(NodeId seed,
                                                       QueryWorkspace& ws,
                                                       EstimatorStats* stats) {
  HKPR_CHECK(seed < graph_.NumNodes());
  if (stats != nullptr) stats->Reset();
  ws.result.Clear();
  SparseVector& rho = ws.result;
  const double weight = 1.0 / static_cast<double>(num_walks_);
  uint64_t steps = 0;
  for (uint64_t i = 0; i < num_walks_; ++i) {
    // Draw the Poisson length first (as in the original algorithm), truncate
    // at the cap, then walk.
    uint32_t length = std::min(kernel_.SamplePoissonLength(rng_), length_cap_);
    NodeId current = seed;
    for (uint32_t step = 0; step < length; ++step) {
      if (graph_.Degree(current) == 0) break;
      current = graph_.RandomNeighbor(current, rng_);
      ++steps;
    }
    rho.Add(current, weight);
  }
  if (stats != nullptr) {
    stats->num_walks = num_walks_;
    stats->walk_steps = steps;
    stats->peak_bytes = rho.MemoryBytes();
  }
  return rho;
}

}  // namespace hkpr
