// Tests for the degree-ordered layout pass (graph/relabel.h): the mapping
// is a degree-sorted permutation, node ids and neighbor lists are
// untouched, rows are physically packed in rank order — and, the contract
// that makes the pass safe to apply under a live service, every registered
// backend answers bit-identically on the relabeled graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/relabel.h"
#include "hkpr/backend.h"
#include "hkpr/queries.h"
#include "test_util.h"

namespace hkpr {
namespace {

ApproxParams TestParams() {
  ApproxParams p;
  p.t = 5.0;
  p.eps_r = 0.5;
  p.delta = 1e-3;
  p.p_f = 1e-4;
  return p;
}

TEST(RelabelTest, MappingIsDegreeSortedPermutation) {
  Graph g = PowerlawCluster(500, 3, 0.4, 31);
  DegreeOrderedLayout layout = RelabelByDegree(g);

  ASSERT_EQ(layout.order.size(), g.NumNodes());
  ASSERT_EQ(layout.rank.size(), g.NumNodes());
  std::vector<bool> seen(g.NumNodes(), false);
  for (uint32_t r = 0; r < g.NumNodes(); ++r) {
    const NodeId v = layout.order[r];
    ASSERT_LT(v, g.NumNodes());
    EXPECT_FALSE(seen[v]) << "duplicate id in order";
    seen[v] = true;
    EXPECT_EQ(layout.rank[v], r) << "rank is not the inverse of order";
  }
  for (uint32_t r = 1; r < g.NumNodes(); ++r) {
    const NodeId prev = layout.order[r - 1];
    const NodeId cur = layout.order[r];
    // Descending degree, ties broken by ascending id.
    EXPECT_TRUE(g.Degree(prev) > g.Degree(cur) ||
                (g.Degree(prev) == g.Degree(cur) && prev < cur))
        << "rank " << r;
  }
}

TEST(RelabelTest, IdsAndNeighborListsUnchanged) {
  Graph g = PowerlawCluster(400, 4, 0.3, 32);
  DegreeOrderedLayout layout = RelabelByDegree(g);
  const Graph& ordered = layout.graph;

  EXPECT_TRUE(ordered.degree_ordered());
  EXPECT_FALSE(g.degree_ordered());
  ASSERT_EQ(ordered.NumNodes(), g.NumNodes());
  EXPECT_EQ(ordered.NumEdges(), g.NumEdges());
  EXPECT_TRUE(std::ranges::equal(ordered.offsets(), g.offsets()));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(ordered.Degree(v), g.Degree(v)) << v;
    EXPECT_TRUE(std::ranges::equal(ordered.Neighbors(v), g.Neighbors(v)))
        << v;
  }
  // Sorted-row lookups still work on the permuted placement.
  for (NodeId v = 0; v < std::min<NodeId>(g.NumNodes(), 50); ++v) {
    for (NodeId u : g.Neighbors(v)) {
      EXPECT_TRUE(ordered.HasEdge(v, u)) << v << "-" << u;
    }
  }
}

TEST(RelabelTest, RowsArePhysicallyPackedInRankOrder) {
  Graph g = PowerlawCluster(300, 3, 0.5, 33);
  DegreeOrderedLayout layout = RelabelByDegree(g);

  // The hottest (highest-degree) row sits at the front of the adjacency
  // array, and ranks tile it left to right with no gaps.
  uint64_t cursor = 0;
  for (uint32_t r = 0; r < g.NumNodes(); ++r) {
    const NodeId v = layout.order[r];
    EXPECT_EQ(layout.graph.RowStart(v), cursor) << "rank " << r;
    cursor += layout.graph.Degree(v);
  }
  EXPECT_EQ(cursor, layout.graph.adjacency().size());
}

TEST(RelabelTest, EveryRegistryBackendIsBitIdentical) {
  // The acceptance contract: for every registered backend — including the
  // randomized ones, whose walk trajectories depend on neighbor-list order
  // — the relabeled graph answers bit-for-bit the same scores per (engine
  // seed, query index). This is what lets a service apply the layout pass
  // at load time without perturbing results, caches, or determinism tests.
  Graph g = PowerlawCluster(300, 3, 0.3, 34);
  DegreeOrderedLayout layout = RelabelByDegree(g);
  const ApproxParams params = TestParams();

  const std::vector<NodeId> seeds = {0, 7, 42, 137, 299};

  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    BackendSpec spec;
    spec.name = name;
    QueryExecutor standard(g, params, /*base_seed=*/91, spec);
    QueryExecutor ordered(layout.graph, params, /*base_seed=*/91, spec);
    for (uint64_t qi = 0; qi < seeds.size(); ++qi) {
      const SparseVector a = standard.Answer(seeds[qi], qi);
      const SparseVector b = ordered.Answer(seeds[qi], qi);
      ASSERT_EQ(a.nnz(), b.nnz()) << "query " << qi;
      EXPECT_EQ(a.degree_offset(), b.degree_offset());
      for (const auto& e : a.entries()) {
        // Exact equality, not almost-equal: the layouts must produce the
        // same arithmetic in the same order.
        EXPECT_EQ(b.Get(e.key), e.value) << "node " << e.key;
      }
    }
  }
}

TEST(RelabelTest, RelabelOfRelabelIsStable) {
  Graph g = PowerlawCluster(200, 3, 0.4, 35);
  DegreeOrderedLayout once = RelabelByDegree(g);
  DegreeOrderedLayout twice = RelabelByDegree(once.graph);
  EXPECT_EQ(twice.order, once.order);
  EXPECT_TRUE(
      std::ranges::equal(twice.graph.adjacency(), once.graph.adjacency()));
  EXPECT_TRUE(
      std::ranges::equal(twice.graph.row_starts(), once.graph.row_starts()));
}

}  // namespace
}  // namespace hkpr
