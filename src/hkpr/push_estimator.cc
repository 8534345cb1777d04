#include "hkpr/push_estimator.h"

#include <limits>

#include "common/logging.h"
#include "hkpr/push.h"

namespace hkpr {

PushOnlyEstimator::PushOnlyEstimator(const Graph& graph,
                                     const ApproxParams& params)
    : graph_(graph), params_(params), kernel_(params.t) {}

const SparseVector& PushOnlyEstimator::EstimateInto(NodeId seed,
                                                    QueryWorkspace& ws,
                                                    EstimatorStats* stats) {
  HKPR_CHECK(seed < graph_.NumNodes());
  if (stats != nullptr) stats->Reset();

  HkPushPlusOptions options;
  options.eps_r = params_.eps_r;
  options.delta = params_.delta;
  // Full hop range: residues parked at MaxHop carry < the kernel's tail
  // tolerance, so draining every earlier hop certifies Inequality (11).
  options.hop_cap = kernel_.MaxHop();
  options.push_budget = std::numeric_limits<uint64_t>::max();
  options.enable_early_exit = true;
  const PushCounters push =
      HkPushPlusInto(graph_, kernel_, seed, options, ws);

  if (stats != nullptr) {
    stats->push_operations = push.push_operations;
    stats->entries_processed = push.entries_processed;
    stats->early_exit = push.hit_absolute_target;
    stats->peak_bytes = ws.residues.MemoryBytes() + ws.result.MemoryBytes();
  }
  return ws.result;
}

}  // namespace hkpr
