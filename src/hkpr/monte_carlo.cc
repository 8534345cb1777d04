#include "hkpr/monte_carlo.h"

#include <cmath>

#include "common/logging.h"

namespace hkpr {

MonteCarloEstimator::MonteCarloEstimator(const Graph& graph,
                                         const ApproxParams& params,
                                         uint64_t seed, double pf_prime,
                                         const WalkKernelOptions& walk_kernel)
    : graph_(graph),
      params_(params),
      kernel_(params.t),
      walk_kernel_(walk_kernel),
      seed_(seed) {
  if (pf_prime < 0.0) pf_prime = ComputePfPrime(graph, params.p_f);
  num_walks_ = static_cast<uint64_t>(std::ceil(OmegaTea(params, pf_prime)));
  HKPR_CHECK(num_walks_ > 0);
}

const SparseVector& MonteCarloEstimator::EstimateInto(NodeId seed,
                                                      QueryWorkspace& ws,
                                                      EstimatorStats* stats) {
  HKPR_CHECK(seed < graph_.NumNodes());
  if (stats != nullptr) stats->Reset();
  const uint64_t epoch = epoch_++;
  ws.result.Clear();
  WalkStartSet start_set;
  start_set.fixed_node = seed;
  const uint64_t steps = RunWalkPhase(
      graph_, kernel_, start_set, WalkStreamSeed(seed_, epoch), num_walks_,
      1.0 / static_cast<double>(num_walks_), walk_kernel_, ws);
  if (stats != nullptr) {
    stats->num_walks = num_walks_;
    stats->walk_steps = steps;
    stats->peak_bytes =
        ws.result.MemoryBytes() + ws.walk_ends.capacity() * sizeof(NodeId);
  }
  return ws.result;
}

}  // namespace hkpr
