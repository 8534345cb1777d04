#include "graph/graph.h"

#include <algorithm>
#include <utility>

namespace hkpr {

struct Graph::OwnedStorage {
  std::vector<uint64_t> offsets;
  std::vector<NodeId> adjacency;
};

namespace {

#ifndef NDEBUG
/// Full structural validation of an owned CSR: per-row sortedness, id
/// range, no self-loops.
void DebugValidateRows(std::span<const uint64_t> offsets,
                       std::span<const NodeId> adjacency) {
  const uint32_t n = static_cast<uint32_t>(offsets.size() - 1);
  for (uint32_t v = 0; v < n; ++v) {
    HKPR_DCHECK(offsets[v] <= offsets[v + 1]);
    const uint64_t begin = offsets[v];
    const uint64_t end = offsets[v + 1];
    HKPR_DCHECK(end <= adjacency.size()) << "row exceeds adjacency";
    for (uint64_t i = begin; i < end; ++i) {
      HKPR_DCHECK(adjacency[i] < n) << "neighbor id out of range";
      HKPR_DCHECK(adjacency[i] != v) << "self-loop in CSR";
      if (i > begin) {
        HKPR_DCHECK(adjacency[i - 1] < adjacency[i])
            << "adjacency row not strictly sorted";
      }
    }
  }
}
#endif

}  // namespace

Graph Graph::FromCsr(std::vector<uint64_t> offsets,
                     std::vector<NodeId> adjacency) {
  HKPR_CHECK(!offsets.empty()) << "offsets must have at least one entry";
  HKPR_CHECK(offsets.front() == 0);
  HKPR_CHECK(offsets.back() == adjacency.size());
  auto storage = std::make_shared<OwnedStorage>();
  storage->offsets = std::move(offsets);
  storage->adjacency = std::move(adjacency);

  Graph g;
  g.offsets_ = storage->offsets;
  g.adjacency_ = storage->adjacency;
#ifndef NDEBUG
  DebugValidateRows(g.offsets_, g.adjacency_);
#endif
  g.storage_ = std::move(storage);
  return g;
}

Graph Graph::FromExternal(std::span<const uint64_t> offsets,
                          std::span<const NodeId> adjacency,
                          std::shared_ptr<const void> storage) {
  HKPR_CHECK(!offsets.empty()) << "offsets must have at least one entry";
  HKPR_CHECK(offsets.front() == 0);
  HKPR_CHECK(offsets.back() == adjacency.size());
  Graph g;
  g.offsets_ = offsets;
  g.adjacency_ = adjacency;
  g.storage_ = std::move(storage);
  g.mmap_backed_ = true;
  return g;
}

uint32_t Graph::MaxDegree() const {
  uint32_t best = 0;
  for (uint32_t v = 0; v < NumNodes(); ++v) best = std::max(best, Degree(v));
  return best;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace hkpr
