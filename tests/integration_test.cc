// Cross-module integration tests: all estimators on shared workloads,
// dataset registry, and workload builders.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/cluster_hkpr.h"
#include "baselines/hk_relax.h"
#include "bench_util/datasets.h"
#include "bench_util/workload.h"
#include "clustering/local_cluster.h"
#include "clustering/metrics.h"
#include "graph/generators.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/power_method.h"
#include "hkpr/tea.h"
#include "hkpr/tea_plus.h"
#include "test_util.h"

namespace hkpr {
namespace {

TEST(IntegrationTest, AllEstimatorsAgreeOnTopNodes) {
  Graph g = PowerlawCluster(400, 4, 0.3, 1);
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1e-3;
  params.p_f = 1e-4;
  const NodeId seed = 13;
  const std::vector<double> exact = ExactHkpr(g, params.t, seed);

  // Exact top-10 nodes by normalized value.
  std::vector<NodeId> exact_top;
  {
    std::vector<std::pair<double, NodeId>> scored;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.Degree(v) > 0 && exact[v] > 0) {
        scored.emplace_back(exact[v] / g.Degree(v), v);
      }
    }
    std::sort(scored.rbegin(), scored.rend());
    for (size_t i = 0; i < 10 && i < scored.size(); ++i) {
      exact_top.push_back(scored[i].second);
    }
  }

  MonteCarloEstimator mc(g, params, 2);
  TeaEstimator tea(g, params, 3);
  TeaPlusEstimator tea_plus(g, params, 4);
  HkRelaxOptions relax_options;
  relax_options.t = params.t;
  relax_options.eps_a = 1e-5;
  HkRelaxEstimator relax(g, relax_options);

  std::vector<WorkspaceEstimator*> estimators = {&mc, &tea, &tea_plus, &relax};
  for (WorkspaceEstimator* est : estimators) {
    SparseVector rho = est->Estimate(seed);
    std::vector<std::pair<double, NodeId>> scored;
    for (const auto& e : rho.entries()) {
      if (g.Degree(e.key) > 0 && e.value > 0) {
        scored.emplace_back(e.value / g.Degree(e.key), e.key);
      }
    }
    std::sort(scored.rbegin(), scored.rend());
    size_t overlap = 0;
    for (size_t i = 0; i < 10 && i < scored.size(); ++i) {
      if (std::find(exact_top.begin(), exact_top.end(), scored[i].second) !=
          exact_top.end()) {
        ++overlap;
      }
    }
    EXPECT_GE(overlap, 8u) << est->name();
  }
}

TEST(IntegrationTest, NdcgOrderingMatchesAccuracyHierarchy) {
  // A tight TEA+ must out-rank a very loose ClusterHKPR.
  Graph g = PowerlawCluster(500, 4, 0.3, 5);
  const NodeId seed = 21;
  std::vector<double> normalized = ExactHkpr(g, 5.0, seed);
  NormalizeByDegree(g, normalized);

  ApproxParams tight;
  tight.delta = 1e-5;
  tight.p_f = 1e-4;
  TeaPlusEstimator tea_plus(g, tight, 6);

  ClusterHkprOptions loose;
  loose.eps = 0.5;
  loose.max_walks = 2000;
  ClusterHkprEstimator chkpr(g, loose, 7);

  const double ndcg_tea = NdcgAtK(g, tea_plus.Estimate(seed), normalized, 100);
  const double ndcg_chkpr = NdcgAtK(g, chkpr.Estimate(seed), normalized, 100);
  EXPECT_GT(ndcg_tea, ndcg_chkpr);
  EXPECT_GT(ndcg_tea, 0.95);
}

TEST(DatasetsTest, RegistryBuildsAllQuickDatasets) {
  for (const std::string& name : DatasetNames()) {
    Dataset d = MakeDataset(name, DatasetScale::kQuick, 42);
    EXPECT_EQ(d.name, name);
    EXPECT_GT(d.graph.NumNodes(), 1000u) << name;
    EXPECT_GT(d.graph.NumEdges(), d.graph.NumNodes() / 2) << name;
    EXPECT_FALSE(d.paper_name.empty());
  }
}

TEST(DatasetsTest, CommunityDatasetsHaveGroundTruth) {
  for (const std::string& name : CommunityDatasetNames()) {
    Dataset d = MakeDataset(name, DatasetScale::kQuick, 42);
    EXPECT_FALSE(d.communities.empty()) << name;
  }
}

TEST(DatasetsTest, DeterministicInSeed) {
  Dataset a = MakeDataset("plc", DatasetScale::kQuick, 7);
  Dataset b = MakeDataset("plc", DatasetScale::kQuick, 7);
  EXPECT_TRUE(std::ranges::equal(a.graph.adjacency(), b.graph.adjacency()));
}

TEST(DatasetsTest, GridHasUniformDegreeSix) {
  Dataset d = MakeDataset("grid3d", DatasetScale::kQuick, 42);
  for (NodeId v = 0; v < d.graph.NumNodes(); ++v) {
    ASSERT_EQ(d.graph.Degree(v), 6u);
  }
}

TEST(DatasetsTest, OrkutDenserThanDblp) {
  Dataset dblp = MakeDataset("dblp", DatasetScale::kQuick, 42);
  Dataset orkut = MakeDataset("orkut", DatasetScale::kQuick, 42);
  EXPECT_GT(orkut.graph.AverageDegree(), 3.0 * dblp.graph.AverageDegree());
}

TEST(WorkloadTest, UniformSeedsDistinctAndValid) {
  Graph g = PowerlawCluster(2000, 3, 0.3, 8);
  Rng rng(9);
  std::vector<NodeId> seeds = UniformSeeds(g, 50, rng);
  EXPECT_EQ(seeds.size(), 50u);
  std::vector<NodeId> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  for (NodeId v : seeds) EXPECT_GT(g.Degree(v), 0u);
}

TEST(WorkloadTest, CommunitySeedsComeFromBigCommunities) {
  CommunityGraph cg = PlantedPartition(10, 40, 0.3, 0.002, 10);
  Rng rng(11);
  auto seeds = CommunitySeeds(cg.graph, cg.communities, 20, 30, rng);
  EXPECT_EQ(seeds.size(), 20u);
  for (const auto& cs : seeds) {
    const auto& community = cg.communities.Community(cs.community);
    EXPECT_GE(community.size(), 30u);
    EXPECT_TRUE(std::find(community.begin(), community.end(), cs.seed) !=
                community.end());
  }
}

TEST(WorkloadTest, DensityStrataAreOrdered) {
  Dataset d = MakeDataset("dblp", DatasetScale::kQuick, 42);
  Rng rng(12);
  DensityStratifiedSeeds strata =
      MakeDensityStratifiedSeeds(d.graph, 100, 40, 10, rng);
  EXPECT_EQ(strata.high.size(), 10u);
  EXPECT_EQ(strata.medium.size(), 10u);
  EXPECT_EQ(strata.low.size(), 10u);
}

}  // namespace
}  // namespace hkpr
