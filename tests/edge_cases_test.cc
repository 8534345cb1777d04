// Edge-case and failure-injection tests across modules: boundary
// parameters, truncated inputs, degenerate graphs, and API misuse that must
// be caught by CHECKs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "baselines/crd.h"
#include "clustering/conductance.h"
#include "clustering/metrics.h"
#include "clustering/sweep.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/power_method.h"
#include "hkpr/push.h"
#include "hkpr/queries.h"
#include "hkpr/tea.h"
#include "bench_util/workload.h"
#include "test_util.h"

namespace hkpr {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(GraphIoEdgeTest, BinaryTruncatedHeaderFails) {
  const std::string path = TempPath("trunc_header.bin");
  std::ofstream out(path, std::ios::binary);
  out << "HKPRGRPH";  // magic only, no sizes
  out.close();
  EXPECT_FALSE(MapBinary(path).ok());
}

TEST(GraphIoEdgeTest, BinaryTruncatedOffsetsFails) {
  // Write a valid graph, then truncate the file inside the offsets array.
  Graph g = testing::MakeCycle(100);
  const std::string path = TempPath("trunc_offsets.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
#ifdef _WIN32
  std::fclose(f);
#else
  ASSERT_EQ(ftruncate(fileno(f), 128), 0);
  std::fclose(f);
  EXPECT_FALSE(MapBinary(path).ok());
#endif
}

TEST(GraphIoEdgeTest, NodeIdOverflowRejected) {
  const std::string path = TempPath("overflow.txt");
  std::ofstream out(path);
  out << "0 42949672960\n";  // > 2^32
  out.close();
  auto loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
}

TEST(HeatKernelEdgeTest, SampleAtCdfBoundaryReturnsValidHop) {
  HeatKernel kernel(5.0);
  Rng rng(1);
  for (int i = 0; i < 200000; ++i) {
    EXPECT_LE(kernel.SamplePoissonLength(rng), kernel.MaxHop());
  }
}

TEST(HeatKernelEdgeTest, TinyTConcentratesAtZero) {
  HeatKernel kernel(0.01);
  EXPECT_GT(kernel.Eta(0), 0.99);
  EXPECT_GT(kernel.TerminationProb(0), 0.99);
}

TEST(ConductanceEdgeTest, ComplementDenominator) {
  // A set holding more than half the volume must use the complement volume.
  Graph g = testing::MakeStar(10);  // hub 0, vol = 18
  std::vector<NodeId> big = {0, 1, 2, 3, 4, 5, 6};  // vol = 9 + 6 = 15
  const CutStats stats = ComputeCutStats(g, big);
  EXPECT_EQ(stats.volume, 15u);
  EXPECT_EQ(stats.cut, 3u);  // hub to 3 outside leaves
  EXPECT_DOUBLE_EQ(stats.conductance, 3.0 / 3.0);  // min(15, 3) = 3
}

TEST(SweepEdgeTest, SingleEntrySupport) {
  Graph g = testing::MakeCycle(6);
  SparseVector est;
  est.Add(2, 1.0);
  SweepResult sweep = SweepCut(g, est);
  ASSERT_EQ(sweep.cluster.size(), 1u);
  EXPECT_EQ(sweep.cluster[0], 2u);
  EXPECT_DOUBLE_EQ(sweep.conductance, 1.0);  // 2 cut / 2 vol
}

TEST(SweepEdgeTest, ProfileLengthMatchesInspectedPrefixes) {
  Graph g = testing::MakeBarbell(5);
  const std::vector<double> rho = ExactHkpr(g, 5.0, 0);
  SparseVector est;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (rho[v] > 0) est.Add(v, rho[v]);
  }
  SweepOptions options;
  options.max_prefix = 3;
  options.keep_profile = true;
  SweepResult sweep = SweepCut(g, est, options);
  EXPECT_EQ(sweep.profile.size(), 3u);
}

TEST(PushEdgeTest, HopCapAboveKernelMaxIsClamped) {
  Graph g = testing::MakeCycle(10);
  HeatKernel kernel(2.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-4;
  options.hop_cap = kernel.MaxHop() + 100;
  options.push_budget = 1'000'000;
  PushResult push = HkPushPlus(g, kernel, 0, options);
  EXPECT_LE(push.residues.max_hop(), kernel.MaxHop());
}

TEST(PushEdgeTest, IsolatedSeedKeepsUnitResidue) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  Graph g = b.Build();  // node 2 isolated
  HeatKernel kernel(5.0);
  PushResult push = HkPush(g, kernel, 2, 0.001);
  // Degree 0: nothing can be pushed; the mass stays as hop-0 residue.
  EXPECT_EQ(push.entries_processed, 0u);
  EXPECT_DOUBLE_EQ(testing::ResidueAt(push.residues, 0, 2), 1.0);
}

TEST(TeaEdgeTest, HugeRmaxDegeneratesToMonteCarlo) {
  // With r_max so large nothing is pushed, alpha = 1 and TEA performs the
  // full omega walks from the seed — exactly the Monte-Carlo regime the
  // paper describes for c -> 0 / r_max -> inf.
  Graph g = PowerlawCluster(200, 3, 0.3, 2);
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1e-2;
  params.p_f = 1e-2;
  TeaOptions options;
  options.r_max_scale = 1e9;
  TeaEstimator tea(g, params, 3, options);
  EstimatorStats stats;
  tea.Estimate(5, &stats);
  EXPECT_EQ(stats.entries_processed, 0u);
  EXPECT_EQ(stats.num_walks,
            static_cast<uint64_t>(std::ceil(tea.omega())));
}

TEST(WorkloadEdgeTest, FewerEligibleSeedsThanRequested) {
  GraphBuilder b(50);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = b.Build();  // only 3 non-isolated nodes
  Rng rng(4);
  std::vector<NodeId> seeds = UniformSeeds(g, 10, rng);
  EXPECT_EQ(seeds.size(), 3u);
}

TEST(QueriesEdgeTest, TopKOnEmptyEstimate) {
  Graph g = testing::MakeCycle(5);
  SparseVector empty;
  EXPECT_TRUE(TopKNormalized(g, empty, 10).empty());
}

TEST(QueriesEdgeTest, SeedSetRejectsMismatchedWeights) {
  Graph g = testing::MakeCycle(6);
  ApproxParams params;
  params.delta = 1e-2;
  params.p_f = 1e-2;
  MonteCarloEstimator est(g, params, 5);
  std::vector<NodeId> seeds = {0, 1};
  std::vector<double> weights = {1.0};
  EXPECT_DEATH(EstimateSeedSet(g, est, seeds, weights), "weights");
}

TEST(QueriesEdgeTest, SeedSetRejectsZeroTotalWeight) {
  Graph g = testing::MakeCycle(6);
  ApproxParams params;
  params.delta = 1e-2;
  params.p_f = 1e-2;
  MonteCarloEstimator est(g, params, 6);
  std::vector<NodeId> seeds = {0, 1};
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_DEATH(EstimateSeedSet(g, est, seeds, weights), "positive");
}

TEST(CrdEdgeTest, TrappedMassStopsEarly) {
  // A tiny clique saturates immediately: the trapped-mass condition must
  // stop the outer loop well before the iteration cap.
  Graph g = testing::MakeComplete(5);
  CrdOptions options;
  options.iterations = 30;
  FlowClusterResult result = Crd(g, 0, options);
  EXPECT_LT(result.flow_rounds, 30u);
}

TEST(GeneratorEdgeTest, GnmNearCompleteGraph) {
  const uint32_t n = 12;
  const uint64_t max_edges = static_cast<uint64_t>(n) * (n - 1) / 2;
  Graph g = ErdosRenyiGnm(n, max_edges - 1, 7);
  EXPECT_EQ(g.NumEdges(), max_edges - 1);
}

TEST(GeneratorEdgeTest, PlcSingleEdgePerNodeIsConnectedTree) {
  Graph g = PowerlawCluster(500, 1, 0.0, 8);
  EXPECT_EQ(g.NumEdges(), 499u);  // tree: n-1 edges
  EXPECT_EQ(LargestComponent(g).size(), 500u);
}

TEST(MetricsEdgeTest, NdcgDepthBeyondGraph) {
  Graph g = testing::MakeCycle(4);
  std::vector<double> normalized = {0.4, 0.3, 0.2, 0.1};
  SparseVector est;
  for (NodeId v = 0; v < 4; ++v) est.Add(v, normalized[v]);
  EXPECT_NEAR(NdcgAtK(g, est, normalized, 1000), 1.0, 1e-12);
}

}  // namespace
}  // namespace hkpr
