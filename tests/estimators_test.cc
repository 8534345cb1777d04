// Accuracy and behaviour tests for Monte-Carlo, TEA and TEA+ against dense
// ground truth (Theorems 1 and 3).

#include <gtest/gtest.h>

#include <cmath>

#include "clustering/metrics.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/power_method.h"
#include "hkpr/push_estimator.h"
#include "hkpr/tea.h"
#include "hkpr/tea_plus.h"
#include "test_util.h"

namespace hkpr {
namespace {

ApproxParams TestParams(double delta) {
  ApproxParams p;
  p.t = 5.0;
  p.eps_r = 0.5;
  p.delta = delta;
  p.p_f = 1e-4;
  return p;
}

TEST(MonteCarloTest, ApproxGuaranteeHolds) {
  Graph g = PowerlawCluster(300, 3, 0.3, 1);
  const ApproxParams params = TestParams(1e-3);
  MonteCarloEstimator mc(g, params, /*seed=*/7);
  const NodeId query = 11;
  const std::vector<double> exact = ExactHkpr(g, params.t, query);
  SparseVector est = mc.Estimate(query);
  // Slack 1.2 absorbs the pf-probability mass of near-threshold nodes.
  EXPECT_EQ(CountApproxViolations(g, est, exact, params.eps_r, params.delta,
                                  /*slack=*/1.2),
            0u);
}

TEST(MonteCarloTest, EstimateSumsToOne) {
  Graph g = testing::MakeBarbell(5);
  MonteCarloEstimator mc(g, TestParams(1e-2), 8);
  SparseVector est = mc.Estimate(0);
  EXPECT_NEAR(est.Sum(), 1.0, 1e-9);  // every walk lands somewhere
}

TEST(MonteCarloTest, StatsPopulated) {
  Graph g = testing::MakeBarbell(5);
  MonteCarloEstimator mc(g, TestParams(1e-2), 9);
  EstimatorStats stats;
  mc.Estimate(0, &stats);
  EXPECT_EQ(stats.num_walks, mc.NumWalks());
  EXPECT_GT(stats.walk_steps, 0u);
  EXPECT_GT(stats.peak_bytes, 0u);
  EXPECT_EQ(stats.push_operations, 0u);
}

TEST(MonteCarloTest, DeterministicGivenSeed) {
  Graph g = testing::MakeBarbell(4);
  const ApproxParams params = TestParams(1e-2);
  MonteCarloEstimator a(g, params, 42), b(g, params, 42);
  SparseVector ea = a.Estimate(1), eb = b.Estimate(1);
  EXPECT_EQ(ea.nnz(), eb.nnz());
  for (const auto& e : ea.entries()) {
    EXPECT_DOUBLE_EQ(eb.Get(e.key), e.value);
  }
}

TEST(TeaTest, ApproxGuaranteeHolds) {
  Graph g = PowerlawCluster(300, 3, 0.3, 2);
  const ApproxParams params = TestParams(1e-3);
  TeaEstimator tea(g, params, 10);
  const NodeId query = 23;
  const std::vector<double> exact = ExactHkpr(g, params.t, query);
  SparseVector est = tea.Estimate(query);
  EXPECT_EQ(CountApproxViolations(g, est, exact, params.eps_r, params.delta,
                                  1.2),
            0u);
}

TEST(TeaTest, FewerWalksThanMonteCarlo) {
  Graph g = PowerlawCluster(500, 4, 0.3, 3);
  const ApproxParams params = TestParams(1e-4);
  MonteCarloEstimator mc(g, params, 11);
  TeaEstimator tea(g, params, 11);
  EstimatorStats mc_stats, tea_stats;
  mc.Estimate(5, &mc_stats);
  tea.Estimate(5, &tea_stats);
  // This is TEA's whole point: alpha < 1 scales the walk count down.
  EXPECT_LT(tea_stats.num_walks, mc_stats.num_walks);
  EXPECT_GT(tea_stats.push_operations, 0u);
}

TEST(TeaTest, RmaxScaleTradesPushForWalks) {
  Graph g = PowerlawCluster(500, 4, 0.3, 4);
  const ApproxParams params = TestParams(1e-4);
  TeaOptions fine, coarse;
  fine.r_max_scale = 0.1;    // smaller threshold -> more push, fewer walks
  coarse.r_max_scale = 10.0;
  TeaEstimator tea_fine(g, params, 12, fine);
  TeaEstimator tea_coarse(g, params, 12, coarse);
  EstimatorStats fine_stats, coarse_stats;
  tea_fine.Estimate(5, &fine_stats);
  tea_coarse.Estimate(5, &coarse_stats);
  EXPECT_GT(fine_stats.push_operations, coarse_stats.push_operations);
  EXPECT_LT(fine_stats.num_walks, coarse_stats.num_walks);
}

TEST(TeaPlusTest, ApproxGuaranteeHolds) {
  Graph g = PowerlawCluster(300, 3, 0.3, 5);
  const ApproxParams params = TestParams(1e-3);
  TeaPlusEstimator tea_plus(g, params, 13);
  const NodeId query = 42;
  const std::vector<double> exact = ExactHkpr(g, params.t, query);
  SparseVector est = tea_plus.Estimate(query);
  EXPECT_EQ(CountApproxViolations(g, est, exact, params.eps_r, params.delta,
                                  1.2),
            0u);
}

TEST(TeaPlusTest, EarlyExitOnLooseAccuracy) {
  Graph g = testing::MakeBarbell(8);
  ApproxParams params = TestParams(0.01);  // very loose
  TeaPlusEstimator tea_plus(g, params, 14);
  EstimatorStats stats;
  tea_plus.Estimate(0, &stats);
  EXPECT_TRUE(stats.early_exit);
  EXPECT_EQ(stats.num_walks, 0u);
}

TEST(TeaPlusTest, EarlyExitResultSatisfiesTheorem2) {
  Graph g = testing::MakeBarbell(8);
  ApproxParams params = TestParams(0.01);
  TeaPlusEstimator tea_plus(g, params, 15);
  EstimatorStats stats;
  SparseVector est = tea_plus.Estimate(0, &stats);
  ASSERT_TRUE(stats.early_exit);
  const std::vector<double> exact = ExactHkpr(g, params.t, 0);
  EXPECT_LE(MaxNormalizedError(g, est, exact),
            params.eps_r * params.delta + 1e-12);
}

TEST(TeaPlusTest, ResidueReductionCutsWalks) {
  Graph g = PowerlawCluster(800, 5, 0.3, 6);
  const ApproxParams params = TestParams(1e-5);
  // c = 1 keeps the hop cap small so substantial residue mass parks at the
  // cap and the walk phase actually runs (with a generous cap the push
  // phase alone satisfies Inequality (11) on a graph this small).
  TeaPlusOptions with, without;
  with.c = 1.0;
  without.c = 1.0;
  without.enable_residue_reduction = false;
  TeaPlusEstimator reduced(g, params, 16, with);
  TeaPlusEstimator unreduced(g, params, 16, without);
  EstimatorStats reduced_stats, unreduced_stats;
  reduced.Estimate(3, &reduced_stats);
  unreduced.Estimate(3, &unreduced_stats);
  ASSERT_GT(unreduced_stats.num_walks, 0u);
  EXPECT_LT(reduced_stats.num_walks, unreduced_stats.num_walks);
}

TEST(TeaPlusTest, OffsetAttachedAfterWalkPhase) {
  Graph g = PowerlawCluster(800, 5, 0.3, 7);
  const ApproxParams params = TestParams(1e-5);
  TeaPlusEstimator tea_plus(g, params, 17);
  EstimatorStats stats;
  SparseVector est = tea_plus.Estimate(3, &stats);
  if (!stats.early_exit) {
    EXPECT_DOUBLE_EQ(est.degree_offset(),
                     params.eps_r * params.delta / 2.0);
  } else {
    EXPECT_DOUBLE_EQ(est.degree_offset(), 0.0);
  }
}

TEST(TeaPlusTest, UniformBetaStillAccurate) {
  // The ablation mode must stay within the guarantee (it reduces residues
  // by at most the same total).
  Graph g = PowerlawCluster(300, 3, 0.3, 8);
  const ApproxParams params = TestParams(1e-3);
  TeaPlusOptions options;
  options.beta_mode = BetaMode::kUniform;
  TeaPlusEstimator tea_plus(g, params, 18, options);
  const std::vector<double> exact = ExactHkpr(g, params.t, 9);
  SparseVector est = tea_plus.Estimate(9);
  EXPECT_EQ(CountApproxViolations(g, est, exact, params.eps_r, params.delta,
                                  1.2),
            0u);
}

TEST(TeaPlusTest, HopCapFollowsC) {
  Graph g = PowerlawCluster(500, 4, 0.3, 9);
  const ApproxParams params = TestParams(1e-4);
  TeaPlusOptions c1, c4;
  c1.c = 1.0;
  c4.c = 4.0;
  TeaPlusEstimator a(g, params, 19, c1), b(g, params, 19, c4);
  EXPECT_LT(a.hop_cap(), b.hop_cap());
}

TEST(TeaPlusTest, WalkCountBoundedByOmega) {
  // n_r = alpha * omega with alpha <= 1.
  Graph g = PowerlawCluster(500, 4, 0.3, 10);
  const ApproxParams params = TestParams(1e-4);
  TeaPlusEstimator tea_plus(g, params, 20);
  EstimatorStats stats;
  tea_plus.Estimate(7, &stats);
  EXPECT_LE(static_cast<double>(stats.num_walks), tea_plus.omega() + 1.0);
}

TEST(TeaPlusTest, DrainPastHopCapAnswersHardCapWalkersWithinGuarantee) {
  // Seeds whose residue at the hop cap keeps Inequality (11) from
  // certifying walk under the paper's hard cap. Drained past the cap they
  // get a push-only answer, which must meet the same guarantee.
  const Graph g = RestrictToLargestComponent(Rmat(12, 16.0, 5));
  ApproxParams params = TestParams(0.1 / g.NumNodes());
  params.p_f = 1e-6;
  TeaPlusOptions drain;
  drain.drain_past_hop_cap = true;
  TeaPlusEstimator hard_cap(g, params, 21);
  TeaPlusEstimator drained(g, params, 21, drain);
  QueryWorkspace ws;
  size_t walkers = 0;
  for (NodeId s = 0; s < 200; ++s) {
    EstimatorStats hard_stats;
    hard_cap.EstimateInto(s, ws, &hard_stats);
    if (hard_stats.num_walks == 0) continue;
    ++walkers;
    EstimatorStats stats;
    const SparseVector& est = drained.EstimateInto(s, ws, &stats);
    EXPECT_EQ(stats.num_walks, 0u) << "seed " << s;
    const std::vector<double> exact = ExactHkpr(g, params.t, s);
    EXPECT_EQ(
        CountApproxViolations(g, est, exact, params.eps_r, params.delta), 0u)
        << "seed " << s;
  }
  EXPECT_EQ(walkers, 5u);
}

TEST(PushOnlyTest, DeterministicGuarantee) {
  Graph g = PowerlawCluster(300, 3, 0.3, 11);
  const ApproxParams params = TestParams(1e-3);
  PushOnlyEstimator est(g, params);
  const std::vector<double> exact = ExactHkpr(g, params.t, 7);
  SparseVector rho = est.Estimate(7);
  // Deterministic algorithm: the absolute bound must hold with NO slack
  // beyond floating point (failure probability is zero).
  EXPECT_LE(MaxNormalizedError(g, rho, exact),
            params.eps_r * params.delta + 1e-12);
  EXPECT_EQ(CountApproxViolations(g, rho, exact, params.eps_r, params.delta,
                                  1.0 + 1e-9),
            0u);
}

TEST(PushOnlyTest, NoWalksEver) {
  Graph g = PowerlawCluster(300, 3, 0.3, 12);
  PushOnlyEstimator est(g, TestParams(1e-4));
  EstimatorStats stats;
  est.Estimate(3, &stats);
  EXPECT_EQ(stats.num_walks, 0u);
  EXPECT_GT(stats.push_operations, 0u);
}

TEST(PushOnlyTest, MorePushWorkThanTeaPlusAtTightDelta) {
  // The deterministic corner pays for certainty with extra push work: it
  // must drain residues over the full hop range, whereas TEA+ stops at its
  // hop cap / budget and hands the remainder to walks.
  Graph g = PowerlawCluster(1000, 5, 0.3, 13);
  const ApproxParams params = TestParams(1e-6);
  PushOnlyEstimator push_only(g, params);
  TeaPlusOptions options;
  options.c = 1.0;  // walk-heavy TEA+ for a sharp contrast
  TeaPlusEstimator tea_plus(g, params, 14, options);
  EstimatorStats push_stats, tea_stats;
  push_only.Estimate(5, &push_stats);
  tea_plus.Estimate(5, &tea_stats);
  EXPECT_GT(push_stats.push_operations, tea_stats.push_operations);
  EXPECT_GT(tea_stats.num_walks, 0u);  // TEA+ really did trade push for walks
}

TEST(EstimatorInterfaceTest, NamesAreDistinct) {
  Graph g = testing::MakeBarbell(4);
  const ApproxParams params = TestParams(1e-2);
  MonteCarloEstimator mc(g, params, 1);
  TeaEstimator tea(g, params, 1);
  TeaPlusEstimator tea_plus(g, params, 1);
  EXPECT_EQ(mc.name(), "Monte-Carlo");
  EXPECT_EQ(tea.name(), "TEA");
  EXPECT_EQ(tea_plus.name(), "TEA+");
}

}  // namespace
}  // namespace hkpr
