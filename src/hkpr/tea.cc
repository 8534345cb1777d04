#include "hkpr/tea.h"

#include <cmath>

#include "common/logging.h"
#include "hkpr/push.h"

namespace hkpr {

TeaEstimator::TeaEstimator(const Graph& graph, const ApproxParams& params,
                           uint64_t seed, const TeaOptions& options,
                           double pf_prime)
    : graph_(graph),
      params_(params),
      options_(options),
      kernel_(params.t),
      seed_(seed) {
  if (pf_prime < 0.0) pf_prime = ComputePfPrime(graph, params.p_f);
  omega_ = OmegaTea(params, pf_prime);
  HKPR_CHECK(options.r_max_scale > 0.0);
  r_max_ = options.r_max_scale / (omega_ * params.t);
}

const SparseVector& TeaEstimator::EstimateInto(NodeId seed, QueryWorkspace& ws,
                                               EstimatorStats* stats) {
  HKPR_CHECK(seed < graph_.NumNodes());
  if (stats != nullptr) stats->Reset();
  const uint64_t epoch = epoch_++;

  // Phase 1: deterministic traversal.
  const PushCounters push = HkPushInto(graph_, kernel_, seed, r_max_, ws);
  SparseVector& rho = ws.result;

  // Phase 2: refine with residue-guided walks.
  const double alpha = ws.residues.TotalSum();
  const uint64_t num_walks =
      alpha > 0.0 ? static_cast<uint64_t>(std::ceil(alpha * omega_)) : 0;
  uint64_t steps = 0;
  size_t alias_bytes = 0;
  if (num_walks > 0) {
    ws.CollectWalkStarts();
    alias_bytes = ws.alias.MemoryBytes() +
                  ws.starts.capacity() * sizeof(ws.starts[0]) +
                  ws.weights.capacity() * sizeof(double);
    const WalkStartSet start_set{&ws.alias, ws.starts.data(), 0};
    steps = RunWalkPhase(graph_, kernel_, start_set,
                         WalkStreamSeed(seed_, epoch), num_walks,
                         alpha / static_cast<double>(num_walks),
                         options_.walk_kernel, ws);
    alias_bytes += ws.walk_ends.capacity() * sizeof(NodeId);
  }

  if (stats != nullptr) {
    stats->push_operations = push.push_operations;
    stats->entries_processed = push.entries_processed;
    stats->num_walks = num_walks;
    stats->walk_steps = steps;
    stats->peak_bytes =
        ws.residues.MemoryBytes() + rho.MemoryBytes() + alias_bytes;
  }
  return rho;
}

}  // namespace hkpr
