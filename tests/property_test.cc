// Parameterized property sweeps: invariants that must hold for every
// (graph family, estimator, parameter) combination.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include "baselines/hk_relax.h"
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

enum class GraphFamily { kBarbell, kPlc, kGrid, kErdosRenyi, kSbm };
enum class Algorithm { kMonteCarlo, kTea, kTeaPlus, kHkRelax };

std::string FamilyName(GraphFamily f) {
  switch (f) {
    case GraphFamily::kBarbell:
      return "Barbell";
    case GraphFamily::kPlc:
      return "Plc";
    case GraphFamily::kGrid:
      return "Grid";
    case GraphFamily::kErdosRenyi:
      return "ER";
    case GraphFamily::kSbm:
      return "Sbm";
  }
  return "?";
}

std::string AlgoName(Algorithm a) {
  switch (a) {
    case Algorithm::kMonteCarlo:
      return "MC";
    case Algorithm::kTea:
      return "TEA";
    case Algorithm::kTeaPlus:
      return "TEAplus";
    case Algorithm::kHkRelax:
      return "HKRelax";
  }
  return "?";
}

Graph MakeFamily(GraphFamily f) {
  switch (f) {
    case GraphFamily::kBarbell:
      return testing::MakeBarbell(10);
    case GraphFamily::kPlc:
      return PowerlawCluster(400, 4, 0.3, 17);
    case GraphFamily::kGrid:
      return Grid3D(7, 7, 7, true);
    case GraphFamily::kErdosRenyi:
      return ErdosRenyiGnm(300, 1200, 18);
    case GraphFamily::kSbm:
      return PlantedPartition(6, 50, 0.3, 0.003, 19).graph;
  }
  return Graph();
}

std::unique_ptr<WorkspaceEstimator> MakeAlgorithm(Algorithm a, const Graph& g,
                                                  double t, double delta) {
  ApproxParams params;
  params.t = t;
  params.eps_r = 0.5;
  params.delta = delta;
  params.p_f = 1e-4;
  switch (a) {
    case Algorithm::kMonteCarlo:
      return std::make_unique<MonteCarloEstimator>(g, params, 101);
    case Algorithm::kTea:
      return std::make_unique<TeaEstimator>(g, params, 102);
    case Algorithm::kTeaPlus:
      return std::make_unique<TeaPlusEstimator>(g, params, 103);
    case Algorithm::kHkRelax: {
      HkRelaxOptions options;
      options.t = t;
      options.eps_a = 0.5 * delta;  // eps_a = eps_r * delta
      return std::make_unique<HkRelaxEstimator>(g, options);
    }
  }
  return nullptr;
}

class EstimatorPropertyTest
    : public ::testing::TestWithParam<std::tuple<GraphFamily, Algorithm>> {};

TEST_P(EstimatorPropertyTest, EstimateIsValidSubstochasticVector) {
  const auto [family, algo] = GetParam();
  Graph g = MakeFamily(family);
  auto est = MakeAlgorithm(algo, g, 5.0, 2e-3);
  SparseVector rho = est->Estimate(0);
  double sum = 0.0;
  for (const auto& e : rho.entries()) {
    EXPECT_GE(e.value, 0.0);
    EXPECT_LT(e.key, g.NumNodes());
    sum += e.value;
  }
  EXPECT_LE(sum, 1.0 + 1e-6);
  EXPECT_GT(sum, 0.2);  // a meaningful share of the mass is recovered
}

TEST_P(EstimatorPropertyTest, ApproximationGuaranteeHolds) {
  const auto [family, algo] = GetParam();
  Graph g = MakeFamily(family);
  const double delta = 2e-3;
  auto est = MakeAlgorithm(algo, g, 5.0, delta);
  const std::vector<double> exact = ExactHkpr(g, 5.0, 1);
  SparseVector rho = est->Estimate(1);
  // Slack 1.3 absorbs the p_f failure probability and HK-Relax's absolute
  // budget being compared under the (d,eps_r,delta) criterion.
  EXPECT_EQ(CountApproxViolations(g, rho, exact, 0.5, delta, 1.3), 0u)
      << FamilyName(family) << "/" << AlgoName(algo);
}

TEST_P(EstimatorPropertyTest, SweepProducesNonTrivialCluster) {
  const auto [family, algo] = GetParam();
  Graph g = MakeFamily(family);
  auto est = MakeAlgorithm(algo, g, 5.0, 1e-3);
  LocalClusterResult result = LocalCluster(g, *est, 2);
  EXPECT_FALSE(result.cluster.empty());
  EXPECT_GT(result.conductance, 0.0);
  EXPECT_LE(result.conductance, 1.0);
  EXPECT_LT(result.cluster.size(), g.NumNodes());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, EstimatorPropertyTest,
    ::testing::Combine(::testing::Values(GraphFamily::kBarbell,
                                         GraphFamily::kPlc, GraphFamily::kGrid,
                                         GraphFamily::kErdosRenyi,
                                         GraphFamily::kSbm),
                       ::testing::Values(Algorithm::kMonteCarlo,
                                         Algorithm::kTea, Algorithm::kTeaPlus,
                                         Algorithm::kHkRelax)),
    [](const ::testing::TestParamInfo<std::tuple<GraphFamily, Algorithm>>&
           param_info) {
      return FamilyName(std::get<0>(param_info.param)) + "_" +
             AlgoName(std::get<1>(param_info.param));
    });

class HeatConstantPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(HeatConstantPropertyTest, TeaPlusGuaranteeAcrossT) {
  const double t = GetParam();
  Graph g = PowerlawCluster(300, 3, 0.3, 23);
  ApproxParams params;
  params.t = t;
  params.eps_r = 0.5;
  params.delta = 2e-3;
  params.p_f = 1e-4;
  TeaPlusEstimator est(g, params, 104);
  const std::vector<double> exact = ExactHkpr(g, t, 5);
  SparseVector rho = est.Estimate(5);
  EXPECT_EQ(CountApproxViolations(g, rho, exact, params.eps_r, params.delta,
                                  1.3),
            0u)
      << "t=" << t;
}

TEST_P(HeatConstantPropertyTest, WalkLengthMatchesT) {
  const double t = GetParam();
  HeatKernel kernel(t);
  Rng rng(105);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += kernel.SamplePoissonLength(rng);
  EXPECT_NEAR(sum / n, t, 0.05 * t + 0.05);
}

INSTANTIATE_TEST_SUITE_P(HeatConstants, HeatConstantPropertyTest,
                         ::testing::Values(1.0, 3.0, 5.0, 10.0, 20.0, 40.0),
                         [](const ::testing::TestParamInfo<double>& pi) {
                           return "t" + std::to_string(
                                            static_cast<int>(pi.param));
                         });

class EpsilonPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonPropertyTest, TeaPlusGuaranteeAcrossEps) {
  const double eps_r = GetParam();
  Graph g = PowerlawCluster(300, 3, 0.3, 29);
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = eps_r;
  params.delta = 2e-3;
  params.p_f = 1e-4;
  TeaPlusEstimator est(g, params, 106);
  const std::vector<double> exact = ExactHkpr(g, 5.0, 8);
  SparseVector rho = est.Estimate(8);
  EXPECT_EQ(
      CountApproxViolations(g, rho, exact, eps_r, params.delta, 1.3), 0u)
      << "eps_r=" << eps_r;
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonPropertyTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9),
                         [](const ::testing::TestParamInfo<double>& pi) {
                           return "eps" + std::to_string(static_cast<int>(
                                              pi.param * 10));
                         });

}  // namespace
}  // namespace hkpr
