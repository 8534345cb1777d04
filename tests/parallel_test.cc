// Tests for the execution helpers and for TEA+ and Monte-Carlo with their
// walk phase sharded over threads.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "clustering/metrics.h"
#include "graph/generators.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/power_method.h"
#include "hkpr/tea_plus.h"
#include "parallel/parallel_for.h"
#include "test_util.h"

namespace hkpr {
namespace {

TEST(ParallelForTest, ChunksCoverRangeExactly) {
  for (uint64_t total : {1ull, 7ull, 100ull, 1001ull}) {
    for (uint32_t threads : {1u, 2u, 3u, 8u}) {
      std::vector<std::atomic<int>> hits(total);
      ParallelChunks(total, threads,
                     [&](uint32_t, uint64_t begin, uint64_t end) {
                       for (uint64_t i = begin; i < end; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
      for (uint64_t i = 0; i < total; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "total=" << total
                                     << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, ZeroItemsNoCalls) {
  std::atomic<int> calls{0};
  ParallelChunks(0, 4, [&](uint32_t, uint64_t, uint64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, InvokeRunsEachThreadOnce) {
  std::vector<std::atomic<int>> per_thread(6);
  ParallelInvoke(6, [&](uint32_t tid) { per_thread[tid].fetch_add(1); });
  for (auto& c : per_thread) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelForTest, HardwareThreadsPositive) {
  EXPECT_GE(HardwareThreads(), 1u);
}

ApproxParams TestParams(double delta) {
  ApproxParams p;
  p.t = 5.0;
  p.eps_r = 0.5;
  p.delta = delta;
  p.p_f = 1e-4;
  return p;
}

TEST(ParallelMonteCarloTest, GuaranteeHoldsAcrossThreadCounts) {
  Graph g = PowerlawCluster(300, 3, 0.3, 1);
  const ApproxParams params = TestParams(1e-3);
  const std::vector<double> exact = ExactHkpr(g, params.t, 7);
  for (uint32_t threads : {1u, 2u, 4u}) {
    MonteCarloEstimator est(g, params, 9, -1.0, WalkKernelOptions(), threads);
    SparseVector rho = est.Estimate(7);
    EXPECT_EQ(CountApproxViolations(g, rho, exact, params.eps_r, params.delta,
                                    1.2),
              0u)
        << "threads=" << threads;
    EXPECT_NEAR(rho.Sum(), 1.0, 1e-9);
  }
}

TEST(ParallelMonteCarloTest, DeterministicForFixedThreadCount) {
  Graph g = testing::MakeBarbell(6);
  const ApproxParams params = TestParams(1e-2);
  MonteCarloEstimator a(g, params, 11, -1.0, WalkKernelOptions(), 3);
  MonteCarloEstimator b(g, params, 11, -1.0, WalkKernelOptions(), 3);
  SparseVector ra = a.Estimate(0);
  SparseVector rb = b.Estimate(0);
  ASSERT_EQ(ra.nnz(), rb.nnz());
  for (const auto& e : ra.entries()) EXPECT_DOUBLE_EQ(rb.Get(e.key), e.value);
}

TEST(ParallelMonteCarloTest, RepeatedQueriesUseFreshRandomness) {
  Graph g = PowerlawCluster(200, 3, 0.3, 2);
  MonteCarloEstimator est(g, TestParams(1e-2), 13, -1.0, WalkKernelOptions(),
                          2);
  SparseVector first = est.Estimate(5);
  SparseVector second = est.Estimate(5);
  // Different epochs -> (almost surely) different realizations.
  bool any_diff = false;
  for (const auto& e : first.entries()) {
    if (second.Get(e.key) != e.value) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(ParallelMonteCarloTest, SameWalkCountAsSequentialFormula) {
  Graph g = PowerlawCluster(400, 3, 0.3, 3);
  const ApproxParams params = TestParams(1e-3);
  MonteCarloEstimator est(g, params, 15, -1.0, WalkKernelOptions(), 4);
  EstimatorStats stats;
  est.Estimate(3, &stats);
  EXPECT_EQ(stats.num_walks, est.NumWalks());
  EXPECT_GT(stats.walk_steps, 0u);
}

TEST(ParallelTeaPlusTest, GuaranteeHolds) {
  Graph g = PowerlawCluster(300, 3, 0.3, 4);
  const ApproxParams params = TestParams(1e-3);
  const std::vector<double> exact = ExactHkpr(g, params.t, 9);
  for (uint32_t threads : {1u, 2u, 4u}) {
    TeaPlusEstimator est(g, params, 17, TeaPlusOptions(), -1.0, threads);
    SparseVector rho = est.Estimate(9);
    EXPECT_EQ(CountApproxViolations(g, rho, exact, params.eps_r, params.delta,
                                    1.2),
              0u)
        << "threads=" << threads;
  }
}

TEST(ParallelTeaPlusTest, MatchesSequentialPushPhase) {
  // Only the walk phase is sharded, so the push counters must agree with
  // the single-threaded TEA+ configured the same way.
  Graph g = PowerlawCluster(500, 4, 0.3, 5);
  const ApproxParams params = TestParams(1e-4);
  TeaPlusEstimator sequential(g, params, 19);
  TeaPlusEstimator parallel(g, params, 19, TeaPlusOptions(), -1.0, 4);
  EstimatorStats seq_stats, par_stats;
  sequential.Estimate(3, &seq_stats);
  parallel.Estimate(3, &par_stats);
  EXPECT_EQ(par_stats.push_operations, seq_stats.push_operations);
  EXPECT_EQ(par_stats.entries_processed, seq_stats.entries_processed);
  EXPECT_EQ(par_stats.num_walks, seq_stats.num_walks);
}

TEST(ParallelTeaPlusTest, EarlyExitPathIdenticalToSequential) {
  Graph g = testing::MakeBarbell(8);
  const ApproxParams params = TestParams(0.01);  // loose: early exit
  TeaPlusEstimator sequential(g, params, 21);
  TeaPlusEstimator parallel(g, params, 21, TeaPlusOptions(), -1.0, 4);
  EstimatorStats par_stats;
  SparseVector seq = sequential.Estimate(0);
  SparseVector par = parallel.Estimate(0, &par_stats);
  ASSERT_TRUE(par_stats.early_exit);
  ASSERT_EQ(seq.nnz(), par.nnz());
  for (const auto& e : seq.entries()) EXPECT_DOUBLE_EQ(par.Get(e.key), e.value);
}

TEST(ParallelTeaPlusTest, WalkPhaseRunsWhenForced) {
  Graph g = PowerlawCluster(800, 5, 0.3, 6);
  const ApproxParams params = TestParams(1e-5);
  TeaPlusOptions options;
  options.c = 1.0;  // small hop cap -> walk phase required
  TeaPlusEstimator est(g, params, 23, options, -1.0, 4);
  EstimatorStats stats;
  SparseVector rho = est.Estimate(3, &stats);
  EXPECT_FALSE(stats.early_exit);
  EXPECT_GT(stats.num_walks, 0u);
  EXPECT_GT(rho.Sum(), 0.5);
}

}  // namespace
}  // namespace hkpr
