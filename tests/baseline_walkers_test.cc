// Tests for ClusterHKPR.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/cluster_hkpr.h"
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

}  // namespace
}  // namespace hkpr
