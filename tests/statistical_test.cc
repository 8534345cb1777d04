// Statistical validation of the estimators' distributional claims:
// Equation (10) makes TEA's walk contribution an unbiased estimator of the
// residual mass a_s[v]; TEA+'s residue reduction plus the eps_r*delta/2
// offset keeps the signed bias within ±eps_r*delta/2 per unit degree; and
// Monte-Carlo's spread shrinks as omega grows. These are Monte-Carlo tests
// over repeated runs with fixed seeds — deterministic, with tolerances set
// by the central limit theorem plus margin.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/generators.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/power_method.h"
#include "hkpr/tea.h"
#include "hkpr/tea_plus.h"
#include "test_util.h"

namespace hkpr {
namespace {

ApproxParams LooseParams() {
  ApproxParams p;
  p.t = 4.0;
  p.eps_r = 0.5;
  p.delta = 5e-3;  // loose: keeps each run cheap so we can afford many
  p.p_f = 1e-2;
  return p;
}

TEST(StatisticalTest, TeaIsUnbiased) {
  // Average many independent TEA runs; per-node means must converge to the
  // exact HKPR (Equation 10: the walk phase is an unbiased estimator of the
  // residual mass, and the reserve is exact).
  Graph g = testing::MakeBarbell(6);
  const ApproxParams params = LooseParams();
  const NodeId seed = 0;
  const std::vector<double> exact = ExactHkpr(g, params.t, seed);

  const int runs = 300;
  TeaEstimator tea(g, params, 12345);
  std::vector<double> mean(g.NumNodes(), 0.0);
  for (int r = 0; r < runs; ++r) {
    SparseVector est = tea.Estimate(seed);
    for (const auto& e : est.entries()) mean[e.key] += e.value;
  }
  for (double& m : mean) m /= runs;

  // CLT tolerance: each run's per-node value deviates by O(alpha/sqrt(n_r));
  // with the loose parameters a 0.01 absolute margin is ~5 sigma.
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_NEAR(mean[v], exact[v], 0.01) << "node " << v;
  }
}

TEST(StatisticalTest, TeaPlusBiasBoundedByOffsetBand) {
  // Theorem 3's mechanism: the residue reduction underestimates by at most
  // eps_r*delta*d(v) and the +eps_r*delta/2*d(v) offset recenters, so the
  // signed bias of the final estimate lies within +-eps_r*delta/2 per unit
  // degree (plus sampling noise).
  Graph g = PowerlawCluster(400, 4, 0.3, 5);
  ApproxParams params = LooseParams();
  params.delta = 2e-3;
  const NodeId seed = 17;
  const std::vector<double> exact = ExactHkpr(g, params.t, seed);

  TeaPlusOptions options;
  options.c = 1.0;  // force the walk phase so reduction + offset engage
  TeaPlusEstimator tea_plus(g, params, 999, options);

  const int runs = 200;
  std::vector<double> mean(g.NumNodes(), 0.0);
  double offset = 0.0;
  for (int r = 0; r < runs; ++r) {
    SparseVector est = tea_plus.Estimate(seed);
    offset = est.degree_offset();
    for (const auto& e : est.entries()) mean[e.key] += e.value;
  }
  ASSERT_GT(offset, 0.0);  // the walk path was really taken
  const double band = params.eps_r * params.delta / 2.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const uint32_t d = g.Degree(v);
    if (d == 0) continue;
    const double estimate = mean[v] / runs + offset * d;
    const double signed_bias = (estimate - exact[v]) / d;
    EXPECT_LE(std::abs(signed_bias), band + 0.004) << "node " << v;
  }
}

TEST(StatisticalTest, MonteCarloSpreadShrinksWithOmega) {
  // The run-to-run standard deviation of rho_hat at a probe node must drop
  // roughly like 1/sqrt(omega) when delta is tightened 16x.
  Graph g = testing::MakeBarbell(5);
  const NodeId seed = 0;
  const NodeId probe = 4;  // inside the seed clique: sizable mass

  const auto spread = [&](double delta) {
    ApproxParams params = LooseParams();
    params.delta = delta;
    MonteCarloEstimator mc(g, params, 777);
    const int runs = 60;
    double sum = 0.0, sum_sq = 0.0;
    for (int r = 0; r < runs; ++r) {
      const double x = mc.Estimate(seed).Get(probe);
      sum += x;
      sum_sq += x * x;
    }
    const double m = sum / runs;
    return std::sqrt(std::max(0.0, sum_sq / runs - m * m));
  };

  const double loose = spread(8e-3);
  const double tight = spread(5e-4);
  // 16x more walks -> ~4x smaller sigma; require at least 2x with margin.
  EXPECT_LT(tight, loose / 2.0);
}

TEST(StatisticalTest, WalkEndpointFrequenciesAreConsistentAcrossEstimators) {
  // TEA, TEA+ and Monte-Carlo estimate the same vector; their run-averaged
  // estimates must agree with each other within CLT error (a cross-check
  // that does not rely on the power method at all).
  Graph g = testing::MakeCycle(12);
  const ApproxParams params = LooseParams();
  const NodeId seed = 3;

  const auto mean_estimate = [&](WorkspaceEstimator& est) {
    const int runs = 150;
    std::vector<double> mean(g.NumNodes(), 0.0);
    double offset = 0.0;
    for (int r = 0; r < runs; ++r) {
      SparseVector rho = est.Estimate(seed);
      offset += rho.degree_offset();
      for (const auto& e : rho.entries()) mean[e.key] += e.value;
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      mean[v] = mean[v] / runs + (offset / runs) * g.Degree(v);
    }
    return mean;
  };

  MonteCarloEstimator mc(g, params, 31);
  TeaEstimator tea(g, params, 32);
  TeaPlusEstimator tea_plus(g, params, 33);
  const std::vector<double> mc_mean = mean_estimate(mc);
  const std::vector<double> tea_mean = mean_estimate(tea);
  const std::vector<double> plus_mean = mean_estimate(tea_plus);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_NEAR(tea_mean[v], mc_mean[v], 0.015) << v;
    EXPECT_NEAR(plus_mean[v], mc_mean[v], 0.015) << v;
  }
}

}  // namespace
}  // namespace hkpr
