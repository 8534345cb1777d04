#include "hkpr/workspace.h"

#include <utility>

#include "hkpr/estimator.h"

namespace hkpr {

size_t QueryWorkspace::CollectWalkStarts() {
  starts.clear();
  weights.clear();
  const size_t nnz = residues.TotalNonZeros();
  starts.reserve(nnz);
  weights.reserve(nnz);
  for (uint32_t k = 0; k <= residues.max_hop(); ++k) {
    for (const auto& e : residues.Hop(k)) {
      if (e.value > 0.0) {
        starts.emplace_back(e.key, k);
        weights.push_back(e.value);
      }
    }
  }
  if (!weights.empty()) alias.Build(weights);
  return starts.size();
}

size_t QueryWorkspace::MemoryBytes() const {
  return result.MemoryBytes() + residues.MemoryBytes() +
         push_list.capacity() * sizeof(uint32_t) +
         starts.capacity() * sizeof(starts[0]) +
         weights.capacity() * sizeof(double) + alias.MemoryBytes() +
         walk_ends.capacity() * sizeof(NodeId);
}

SparseVector WorkspaceEstimator::Estimate(NodeId seed, EstimatorStats* stats) {
  QueryWorkspace ws;
  EstimateInto(seed, ws, stats);
  return std::move(ws.result);
}

}  // namespace hkpr
