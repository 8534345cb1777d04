// Tests for top-k queries and seed-set estimation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/generators.h"
#include "hkpr/power_method.h"
#include "hkpr/queries.h"
#include "hkpr/tea_plus.h"
#include "test_util.h"

namespace hkpr {
namespace {

ApproxParams TightParams(const Graph& g) {
  ApproxParams p;
  p.t = 5.0;
  p.eps_r = 0.3;
  p.delta = 0.1 / static_cast<double>(g.Volume());
  p.p_f = 1e-4;
  return p;
}

TEST(TopKTest, OrderedAndBounded) {
  Graph g = PowerlawCluster(500, 4, 0.3, 1);
  TeaPlusEstimator est(g, TightParams(g), 2);
  const auto top = TopKQuery(g, est, 7, 10);
  ASSERT_LE(top.size(), 10u);
  ASSERT_GE(top.size(), 2u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST(TopKTest, SeedRanksFirstOnItsOwnQuery) {
  // The seed's normalized HKPR dominates on low-degree seeds.
  Graph g = testing::MakeBarbell(8);
  TeaPlusEstimator est(g, TightParams(g), 3);
  const auto top = TopKQuery(g, est, 0, 5);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].node, 0u);
}

TEST(TopKTest, MatchesExactTopSet) {
  Graph g = PowerlawCluster(300, 3, 0.3, 4);
  const NodeId seed = 11;
  std::vector<double> exact = ExactHkpr(g, 5.0, seed);
  NormalizeByDegree(g, exact);
  // Exact top-5 node set.
  std::vector<NodeId> order(g.NumNodes());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return exact[a] > exact[b];
  });

  TeaPlusEstimator est(g, TightParams(g), 5);
  const auto top = TopKQuery(g, est, seed, 5);
  ASSERT_EQ(top.size(), 5u);
  size_t overlap = 0;
  for (const ScoredNode& s : top) {
    if (std::find(order.begin(), order.begin() + 5, s.node) !=
        order.begin() + 5) {
      ++overlap;
    }
  }
  EXPECT_GE(overlap, 4u);
}

TEST(TopKTest, KLargerThanSupport) {
  Graph g = testing::MakePath(5);
  SparseVector est;
  est.Add(2, 0.5);
  est.Add(3, 0.25);
  const auto top = TopKNormalized(g, est, 100);
  EXPECT_EQ(top.size(), 2u);
}

TEST(TopKTest, MatchesFullSortWithTiesAndLargeK) {
  // Scores take four values (dyadic, so (c*d + offset*d)/d is exactly
  // c + offset), so most ranks are decided by the node-id tie break; zero
  // entries and an offset are mixed in. The top k must be the first k of a
  // full sort under (score descending, node ascending), bit for bit, for
  // every k up to past the support.
  Graph g = PowerlawCluster(300, 3, 0.3, 6);
  SparseVector est;
  for (NodeId v = 2; v < g.NumNodes(); v += 3) {
    const double c = std::ldexp(1.0 + v % 4, -10);
    est.Add(v, v % 7 == 0 ? 0.0 : c * g.Degree(v));
  }
  est.set_degree_offset(std::ldexp(1.0, -12));
  std::vector<ScoredNode> sorted;
  for (const auto& e : est.entries()) {
    if (e.value <= 0.0) continue;
    const uint32_t d = g.Degree(e.key);
    sorted.push_back({e.key, est.ValueWithOffset(e.key, d) / d});
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const ScoredNode& a, const ScoredNode& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.node < b.node;
            });
  ASSERT_GT(sorted.size(), 50u);
  for (size_t k = 0; k <= sorted.size() + 3; ++k) {
    const auto top = TopKNormalized(g, est, k);
    ASSERT_EQ(top.size(), std::min(k, sorted.size())) << "k " << k;
    for (size_t i = 0; i < top.size(); ++i) {
      ASSERT_EQ(top[i].node, sorted[i].node) << "k " << k << " rank " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(top[i].score),
                std::bit_cast<uint64_t>(sorted[i].score))
          << "k " << k << " rank " << i;
    }
  }
}

TEST(TopKTest, IncludesDegreeOffsetInScores) {
  Graph g = testing::MakeStar(4);
  SparseVector est;
  est.Add(1, 0.1);
  est.set_degree_offset(0.05);
  const auto top = TopKNormalized(g, est, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.1 + 0.05);  // (0.1 + 0.05*1)/1
}

TEST(SeedSetTest, SingleSeedMatchesPlainEstimate) {
  Graph g = PowerlawCluster(300, 3, 0.3, 6);
  TeaPlusEstimator est(g, TightParams(g), 7);
  std::vector<NodeId> seeds = {13};
  SparseVector combined = EstimateSeedSet(g, est, seeds);
  // Same estimator + single seed -> same support scale (not bit-identical:
  // a second Estimate() call consumes fresh randomness).
  EXPECT_GT(combined.Sum(), 0.5);
}

TEST(SeedSetTest, SingleSeedIsBitIdenticalToPlainEstimate) {
  // A one-element seed set is the degenerate mixture: weight 1 exactly, so
  // every combined entry equals the plain estimate's entry bit-for-bit
  // (same estimator seed => same randomness).
  Graph g = PowerlawCluster(300, 3, 0.3, 6);
  const ApproxParams params = TightParams(g);
  TeaPlusEstimator plain(g, params, 21);
  const SparseVector expected = plain.Estimate(13);

  TeaPlusEstimator mixed(g, params, 21);
  std::vector<NodeId> seeds = {13};
  const SparseVector combined = EstimateSeedSet(g, mixed, seeds);
  ASSERT_EQ(combined.nnz(), expected.nnz());
  EXPECT_DOUBLE_EQ(combined.degree_offset(), expected.degree_offset());
  for (const auto& e : expected.entries()) {
    EXPECT_DOUBLE_EQ(combined.Get(e.key), e.value);
  }
}

TEST(SeedSetTest, ZeroWeightSeedsAreSkippedEntirely) {
  // A zero-weight seed must not be estimated at all: it contributes no
  // entries AND consumes no randomness, so the result is bit-identical to
  // dropping it from the seed list.
  Graph g = PowerlawCluster(300, 3, 0.3, 6);
  const ApproxParams params = TightParams(g);
  TeaPlusEstimator plain(g, params, 22);
  const SparseVector expected = plain.Estimate(13);

  TeaPlusEstimator mixed(g, params, 22);
  std::vector<NodeId> seeds = {13, 5, 40};
  std::vector<double> weights = {2.0, 0.0, 0.0};
  const SparseVector combined = EstimateSeedSet(g, mixed, seeds, weights);
  ASSERT_EQ(combined.nnz(), expected.nnz());
  for (const auto& e : expected.entries()) {
    EXPECT_DOUBLE_EQ(combined.Get(e.key), e.value);
  }
}

TEST(SeedSetTest, RejectsWeightsLongerThanSeeds) {
  Graph g = testing::MakeCycle(6);
  ApproxParams params;
  params.delta = 1e-2;
  params.p_f = 1e-2;
  TeaPlusEstimator est(g, params, 5);
  std::vector<NodeId> seeds = {0, 1};
  std::vector<double> weights = {0.5, 0.25, 0.25};
  EXPECT_DEATH(EstimateSeedSet(g, est, seeds, weights), "weights");
}

TEST(SeedSetTest, UniformAverageOfDisjointSeeds) {
  // Two seeds in different components: the combined vector is exactly the
  // average (each component keeps its own mass = 0.5).
  GraphBuilder b(12);
  for (NodeId v = 0; v < 5; ++v) b.AddEdge(v, (v + 1) % 6);
  b.AddEdge(5, 0);
  for (NodeId v = 6; v < 11; ++v) b.AddEdge(v, v + 1);
  b.AddEdge(11, 6);
  Graph g = b.Build();
  ApproxParams params = TightParams(g);
  TeaPlusEstimator est(g, params, 8);
  std::vector<NodeId> seeds = {0, 6};
  SparseVector combined = EstimateSeedSet(g, est, seeds);
  double mass_a = 0.0, mass_b = 0.0;
  for (const auto& e : combined.entries()) {
    (e.key < 6 ? mass_a : mass_b) += e.value;
  }
  EXPECT_NEAR(mass_a, 0.5, 0.05);
  EXPECT_NEAR(mass_b, 0.5, 0.05);
}

TEST(SeedSetTest, WeightsBiasTheMixture) {
  GraphBuilder b(12);
  for (NodeId v = 0; v < 5; ++v) b.AddEdge(v, v + 1);
  b.AddEdge(5, 0);
  for (NodeId v = 6; v < 11; ++v) b.AddEdge(v, v + 1);
  b.AddEdge(11, 6);
  Graph g = b.Build();
  TeaPlusEstimator est(g, TightParams(g), 9);
  std::vector<NodeId> seeds = {0, 6};
  std::vector<double> weights = {3.0, 1.0};
  SparseVector combined = EstimateSeedSet(g, est, seeds, weights);
  double mass_a = 0.0, mass_b = 0.0;
  for (const auto& e : combined.entries()) {
    (e.key < 6 ? mass_a : mass_b) += e.value;
  }
  EXPECT_NEAR(mass_a, 0.75, 0.05);
  EXPECT_NEAR(mass_b, 0.25, 0.05);
}

TEST(SeedSetTest, CombinesDegreeOffsets) {
  Graph g = PowerlawCluster(800, 5, 0.3, 10);
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1e-5;
  params.p_f = 1e-4;
  TeaPlusOptions options;
  options.c = 1.0;  // force the walk phase so offsets are attached
  TeaPlusEstimator est(g, params, 11, options);
  std::vector<NodeId> seeds = {3, 4};
  SparseVector combined = EstimateSeedSet(g, est, seeds);
  // Both estimates carry the same offset; the uniform mixture keeps it.
  EXPECT_NEAR(combined.degree_offset(), params.eps_r * params.delta / 2.0,
              1e-12);
}

}  // namespace
}  // namespace hkpr
