// Tests for the heat-kernel weight tables (eta, psi, Poisson sampling).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "hkpr/heat_kernel.h"

namespace hkpr {
namespace {

TEST(HeatKernelTest, EtaSumsToOne) {
  for (double t : {0.5, 1.0, 5.0, 10.0, 40.0}) {
    HeatKernel hk(t);
    double sum = 0.0;
    for (uint32_t k = 0; k <= hk.MaxHop(); ++k) sum += hk.Eta(k);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "t=" << t;
  }
}

TEST(HeatKernelTest, PsiZeroIsOne) {
  for (double t : {1.0, 5.0, 20.0}) {
    HeatKernel hk(t);
    EXPECT_NEAR(hk.Psi(0), 1.0, 1e-12);
  }
}

TEST(HeatKernelTest, PsiRecurrence) {
  HeatKernel hk(5.0);
  for (uint32_t k = 0; k < hk.MaxHop(); ++k) {
    EXPECT_NEAR(hk.Psi(k) - hk.Psi(k + 1), hk.Eta(k), 1e-14) << k;
  }
}

TEST(HeatKernelTest, EtaMatchesClosedForm) {
  const double t = 5.0;
  HeatKernel hk(t);
  double factorial = 1.0;
  for (uint32_t k = 0; k <= 12; ++k) {
    if (k > 0) factorial *= k;
    const double expected = std::exp(-t) * std::pow(t, k) / factorial;
    EXPECT_NEAR(hk.Eta(k), expected, 1e-12 * (1.0 + expected)) << k;
  }
}

TEST(HeatKernelTest, ReserveFractionBelowOneAtEveryPushedHop) {
  // From t = 1e-15 up to the servable cap t = 700 (ServableParams), a push
  // at any hop k < MaxHop() keeps part of its residue moving; e^{-t} is
  // still a normal double at the cap.
  std::vector<double> ts = {700.0};
  for (double t = 1e-15; t < 700.0; t *= 1.02) ts.push_back(t);
  for (double t : ts) {
    HeatKernel hk(t);
    ASSERT_GE(hk.Eta(0), std::numeric_limits<double>::min()) << "t=" << t;
    for (uint32_t k = 0; k < hk.MaxHop(); ++k) {
      ASSERT_LT(hk.ReserveFraction(k), 1.0) << "t=" << t << " k=" << k;
    }
  }
}

TEST(HeatKernelTest, TableEndsWhereTheCdfStallsAboveTheTolerance) {
  // At these t the summed cdf stops short of 1 - 1e-15 by its own rounding
  // error, so a table grown until 1 - cdf <= 1e-15 never ended. It ends
  // once a term no longer changes the cdf, still past the mode and with
  // weights summing to 1.
  for (double t : {19.69, 24.36, 57.0}) {
    HeatKernel hk(t);
    EXPECT_GT(static_cast<double>(hk.MaxHop()), t);
    EXPECT_LT(hk.Eta(hk.MaxHop()), 1e-16) << "t=" << t;
    double sum = 0.0;
    for (uint32_t k = 0; k <= hk.MaxHop(); ++k) sum += hk.Eta(k);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "t=" << t;
    EXPECT_NEAR(hk.Psi(0), 1.0, 1e-12) << "t=" << t;
  }
  // Elsewhere the table is unchanged (MaxHop 31 at t = 5, 65 at t = 20).
  EXPECT_EQ(HeatKernel(5.0).MaxHop(), 31u);
  EXPECT_EQ(HeatKernel(20.0).MaxHop(), 65u);
}

TEST(HeatKernelTest, MaxHopBeyondMode) {
  for (double t : {1.0, 5.0, 40.0}) {
    HeatKernel hk(t);
    EXPECT_GT(static_cast<double>(hk.MaxHop()), t);
  }
}

TEST(HeatKernelTest, TailBelowTolerance) {
  const double tol = 1e-12;
  HeatKernel hk(5.0, tol);
  // psi just past MaxHop is implicitly zero; the folded tail must be small:
  // psi(MaxHop) should be <= eta(MaxHop) + tol.
  EXPECT_LE(hk.Psi(hk.MaxHop()), hk.Eta(hk.MaxHop()) + tol);
}

TEST(HeatKernelTest, TerminationProbRanges) {
  HeatKernel hk(8.0);
  for (uint32_t k = 0; k <= hk.MaxHop(); ++k) {
    EXPECT_GE(hk.TerminationProb(k), 0.0);
    EXPECT_LE(hk.TerminationProb(k), 1.0 + 1e-12);
  }
  EXPECT_DOUBLE_EQ(hk.TerminationProb(hk.MaxHop() + 1), 1.0);
}

TEST(HeatKernelTest, TerminationProbApproachesOne) {
  HeatKernel hk(5.0);
  EXPECT_GT(hk.TerminationProb(hk.MaxHop()), 0.8);
}

TEST(HeatKernelTest, PoissonSampleMoments) {
  const double t = 7.0;
  HeatKernel hk(t);
  Rng rng(42);
  const int n = 300000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double k = hk.SamplePoissonLength(rng);
    sum += k;
    sum_sq += k * k;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, t, 0.05);  // Poisson mean = t
  EXPECT_NEAR(var, t, 0.15);   // Poisson variance = t
}

TEST(HeatKernelTest, PoissonSampleMatchesPmf) {
  const double t = 3.0;
  HeatKernel hk(t);
  Rng rng(43);
  const int n = 200000;
  std::vector<int> counts(hk.MaxHop() + 1, 0);
  for (int i = 0; i < n; ++i) ++counts[hk.SamplePoissonLength(rng)];
  for (uint32_t k = 0; k <= 8; ++k) {
    const double expected = n * hk.Eta(k);
    EXPECT_NEAR(counts[k], expected, 5.0 * std::sqrt(expected) + 20.0) << k;
  }
}

TEST(HeatKernelTest, LargeTStable) {
  HeatKernel hk(64.0);
  EXPECT_NEAR(hk.Psi(0), 1.0, 1e-10);
  EXPECT_GT(hk.MaxHop(), 64u);
  EXPECT_LT(hk.MaxHop(), 100000u);
}

TEST(HeatKernelDeathTest, RejectsNonPositiveT) {
  EXPECT_DEATH(HeatKernel(0.0), "positive");
  EXPECT_DEATH(HeatKernel(-1.0), "positive");
}

}  // namespace
}  // namespace hkpr
