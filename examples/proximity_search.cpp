// Proximity search: top-k heat-kernel neighbors and seed-set queries.
//
// Shows the higher-level query API on TEA+: single-seed top-k ranking (who
// is most heat-kernel-similar to this node?) and multi-seed set queries
// (linearity of HKPR).

#include <cstdio>
#include <vector>

#include "graph/generators.h"
#include "hkpr/queries.h"
#include "hkpr/tea_plus.h"

using namespace hkpr;

int main() {
  CommunityGraph cg = LfrLike(
      [] {
        LfrOptions options;
        options.n = 15000;
        options.mu = 0.15;
        return options;
      }(),
      29);
  const Graph& graph = cg.graph;
  std::printf("graph: %u nodes, %llu edges\n", graph.NumNodes(),
              static_cast<unsigned long long>(graph.NumEdges()));

  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 0.1 / graph.NumNodes();
  params.p_f = 1e-6;
  TeaPlusEstimator estimator(graph, params, /*seed=*/31);

  // Single-seed top-k: the nodes "closest" to the query under heat-kernel
  // proximity. The seed's own community should dominate.
  const NodeId query = cg.communities.Community(5)[0];
  std::printf("\ntop-10 heat-kernel neighbors of node %u:\n", query);
  const auto top = TopKQuery(graph, estimator, query, 10);
  for (const ScoredNode& s : top) {
    const int64_t community =
        cg.communities.CommunityOf(s.node, graph.NumNodes());
    std::printf("  node %6u  score %.6f  community %lld%s\n", s.node, s.score,
                static_cast<long long>(community),
                community == cg.communities.CommunityOf(query,
                                                        graph.NumNodes())
                    ? "  (same as query)"
                    : "");
  }

  // Seed-set query: proximity to a group of nodes at once, weighting one
  // member three times as strongly.
  std::vector<NodeId> group = {cg.communities.Community(5)[0],
                               cg.communities.Community(5)[1],
                               cg.communities.Community(5)[2]};
  std::vector<double> weights = {3.0, 1.0, 1.0};
  SparseVector set_estimate =
      EstimateSeedSet(graph, estimator, group, weights);
  const auto set_top = TopKNormalized(graph, set_estimate, 5);
  std::printf("\ntop-5 for the weighted seed set {%u:3, %u:1, %u:1}:\n",
              group[0], group[1], group[2]);
  for (const ScoredNode& s : set_top) {
    std::printf("  node %6u  score %.6f\n", s.node, s.score);
  }
  return 0;
}
