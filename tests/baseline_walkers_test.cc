// Tests for ClusterHKPR, Nibble and EvolvingSet.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/cluster_hkpr.h"
#include "baselines/evolving_set.h"
#include "baselines/nibble.h"
#include "clustering/conductance.h"
#include "clustering/metrics.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "hkpr/power_method.h"
#include "test_util.h"

namespace hkpr {
namespace {

TEST(ClusterHkprTest, EstimateSumsToOne) {
  // The one-node graph's walks all end at the seed.
  const std::vector<Graph> graphs = {testing::MakeBarbell(5),
                                     GraphBuilder(1).Build()};
  for (const Graph& g : graphs) {
    SCOPED_TRACE(g.NumNodes());
    ClusterHkprOptions options;
    options.eps = 0.2;
    ClusterHkprEstimator est(g, options, 1);
    SparseVector rho = est.Estimate(0);
    EXPECT_NEAR(rho.Sum(), 1.0, 1e-9);
  }
}

TEST(ClusterHkprTest, WalkCountFormula) {
  Graph g = PowerlawCluster(1000, 3, 0.3, 2);
  ClusterHkprOptions options;
  options.eps = 0.1;
  ClusterHkprEstimator est(g, options, 3);
  const double expected = 16.0 * std::log(1000.0) / (0.1 * 0.1 * 0.1);
  EXPECT_EQ(est.NumWalks(), static_cast<uint64_t>(std::ceil(expected)));
}

TEST(ClusterHkprTest, MaxWalksCapRespected) {
  Graph g = PowerlawCluster(1000, 3, 0.3, 4);
  // The theoretical count is ~1.1e8 at eps = 0.01 and ~1.1e29, past the
  // uint64_t range, at eps = 1e-9.
  for (double eps : {0.01, 1e-9}) {
    SCOPED_TRACE(eps);
    ClusterHkprOptions options;
    options.eps = eps;
    options.max_walks = 5000;
    ClusterHkprEstimator est(g, options, 5);
    EXPECT_EQ(est.NumWalks(), options.max_walks);
    EstimatorStats stats;
    est.Estimate(0, &stats);
    EXPECT_EQ(stats.num_walks, 5000u);
  }
}

TEST(ClusterHkprTest, AccuracyImprovesWithSmallerEps) {
  Graph g = testing::MakeBarbell(6);
  const std::vector<double> exact = ExactHkpr(g, 5.0, 0);
  double err_loose, err_tight;
  {
    ClusterHkprOptions options;
    options.eps = 0.4;
    ClusterHkprEstimator est(g, options, 6);
    err_loose = MaxNormalizedError(g, est.Estimate(0), exact);
  }
  {
    ClusterHkprOptions options;
    options.eps = 0.05;
    ClusterHkprEstimator est(g, options, 6);
    err_tight = MaxNormalizedError(g, est.Estimate(0), exact);
  }
  EXPECT_LT(err_tight, err_loose);
}

TEST(ClusterHkprTest, LengthCapTruncatesWalks) {
  Graph g = testing::MakePath(60);
  ClusterHkprOptions options;
  options.t = 20.0;
  options.eps = 0.3;
  options.length_cap = 2;
  ClusterHkprEstimator est(g, options, 7);
  SparseVector rho = est.Estimate(30);
  // Nothing can land more than 2 hops away.
  for (const auto& e : rho.entries()) {
    EXPECT_GE(e.key, 28u);
    EXPECT_LE(e.key, 32u);
  }
}

TEST(NibbleTest, FindsBarbellCut) {
  Graph g = testing::MakeBarbell(8);
  NibbleOptions options;
  options.eps = 1e-6;
  options.max_steps = 30;
  NibbleResult result = Nibble(g, 0, options);
  ASSERT_FALSE(result.cluster.empty());
  EXPECT_LT(result.conductance, 0.05);  // the bridge cut
  EXPECT_GT(result.steps, 0u);
}

TEST(NibbleTest, RecoversPlantedCommunity) {
  CommunityGraph cg = PlantedPartition(6, 50, 0.3, 0.002, 10);
  NibbleOptions options;
  options.eps = 1e-6;
  options.max_steps = 25;
  const NodeId seed = cg.communities.Community(2)[0];
  NibbleResult result = Nibble(cg.graph, seed, options);
  const double planted = Conductance(cg.graph, cg.communities.Community(2));
  EXPECT_LT(result.conductance, 2.0 * planted + 0.1);
}

TEST(NibbleTest, TruncationKeepsSupportLocal) {
  Graph g = Grid3D(12, 12, 12, true);
  NibbleOptions options;
  options.eps = 1e-4;  // aggressive truncation
  options.max_steps = 30;
  NibbleResult result = Nibble(g, 0, options);
  EXPECT_LT(result.cluster.size(), g.NumNodes() / 4);
}

TEST(NibbleTest, IsolatedSeedEmptyResult) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  NibbleResult result = Nibble(g, 2, NibbleOptions{});
  EXPECT_TRUE(result.cluster.empty());
  EXPECT_DOUBLE_EQ(result.conductance, 1.0);
}

TEST(NibbleTest, VolumeCapRespected) {
  CommunityGraph cg = PlantedPartition(4, 60, 0.3, 0.01, 11);
  NibbleOptions options;
  options.eps = 1e-7;
  options.max_steps = 30;
  options.max_volume = cg.graph.Volume() / 4;
  NibbleResult result = Nibble(cg.graph, 5, options);
  if (!result.cluster.empty()) {
    EXPECT_LE(cg.graph.VolumeOf(result.cluster), options.max_volume);
  }
}

TEST(EvolvingSetTest, FindsBarbellCut) {
  Graph g = testing::MakeBarbell(8);
  Rng rng(12);
  EvolvingSetOptions options;
  options.max_steps = 40;
  options.restarts = 5;
  EvolvingSetResult result = EvolvingSet(g, 0, options, rng);
  ASSERT_FALSE(result.cluster.empty());
  EXPECT_LT(result.conductance, 0.05);
}

TEST(EvolvingSetTest, RecoversPlantedCommunity) {
  CommunityGraph cg = PlantedPartition(6, 50, 0.35, 0.002, 13);
  Rng rng(14);
  EvolvingSetOptions options;
  const NodeId seed = cg.communities.Community(1)[0];
  EvolvingSetResult result = EvolvingSet(cg.graph, seed, options, rng);
  const double planted = Conductance(cg.graph, cg.communities.Community(1));
  EXPECT_LT(result.conductance, 2.0 * planted + 0.1);
}

TEST(EvolvingSetTest, IsolatedSeedEmpty) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  Rng rng(15);
  EvolvingSetResult result = EvolvingSet(g, 2, EvolvingSetOptions{}, rng);
  EXPECT_TRUE(result.cluster.empty());
}

TEST(EvolvingSetTest, VolumeCapRespected) {
  Graph g = PowerlawCluster(2000, 4, 0.3, 16);
  Rng rng(17);
  EvolvingSetOptions options;
  options.max_volume = 200;
  EvolvingSetResult result = EvolvingSet(g, 5, options, rng);
  if (!result.cluster.empty()) {
    EXPECT_LE(g.VolumeOf(result.cluster), options.max_volume);
  }
}

TEST(EvolvingSetTest, DeterministicGivenRng) {
  Graph g = PowerlawCluster(500, 4, 0.3, 18);
  EvolvingSetOptions options;
  Rng a(19), b(19);
  EvolvingSetResult ra = EvolvingSet(g, 7, options, a);
  EvolvingSetResult rb = EvolvingSet(g, 7, options, b);
  EXPECT_EQ(ra.cluster, rb.cluster);
  EXPECT_DOUBLE_EQ(ra.conductance, rb.conductance);
}

}  // namespace
}  // namespace hkpr
