#include "graph/graph_builder.h"

#include <algorithm>
#include <utility>

namespace hkpr {

Graph GraphBuilder::Build() {
  const uint32_t n = num_nodes_;

  // Count directed arc slots per node (both directions, self-loops skipped).
  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (const RawEdge& e : edges_) {
    if (e.u == e.v) continue;
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  // Scatter arcs. The two slots an edge writes lie in rows anywhere in the
  // array, so those of the edge kScatterAhead places on are prefetched.
  std::vector<NodeId> adjacency(offsets.back());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  constexpr size_t kScatterAhead = 16;
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i + kScatterAhead < edges_.size()) {
      const RawEdge& ahead = edges_[i + kScatterAhead];
      __builtin_prefetch(adjacency.data() + cursor[ahead.u], 1);
      __builtin_prefetch(adjacency.data() + cursor[ahead.v], 1);
    }
    const RawEdge& e = edges_[i];
    if (e.u == e.v) continue;
    adjacency[cursor[e.u]++] = e.v;
    adjacency[cursor[e.v]++] = e.u;
  }
  edges_.clear();
  edges_.shrink_to_fit();

  // Sort each row and remove duplicate arcs, compacting in place. Rows of
  // edges added in id order (SaveEdgeList files) arrive sorted.
  uint64_t write = 0;
  uint64_t row_start = 0;
  std::vector<uint64_t> new_offsets(static_cast<size_t>(n) + 1, 0);
  for (uint32_t v = 0; v < n; ++v) {
    const uint64_t row_end = offsets[v + 1];
    const auto first = adjacency.begin() + row_start;
    const auto last = adjacency.begin() + row_end;
    if (!std::is_sorted(first, last)) std::sort(first, last);
    for (uint64_t i = row_start; i < row_end; ++i) {
      if (i > row_start && adjacency[i] == adjacency[i - 1]) continue;
      adjacency[write++] = adjacency[i];
    }
    new_offsets[v + 1] = write;
    row_start = row_end;
  }
  adjacency.resize(write);
  adjacency.shrink_to_fit();

  num_nodes_ = 0;
  return Graph::FromCsr(std::move(new_offsets), std::move(adjacency));
}

}  // namespace hkpr
