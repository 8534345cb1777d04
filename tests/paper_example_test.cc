// Worked-example tests anchored to the paper's Section 5.4 walkthrough
// (Figure 1 graph, Tables 4-6): the first push round from the seed must
// produce exactly the reserve and residues the paper tabulates.

#include <gtest/gtest.h>

#include <cmath>

#include "hkpr/heat_kernel.h"
#include "hkpr/push.h"
#include "hkpr/tea_plus.h"
#include "test_util.h"

namespace hkpr {
namespace {

// The paper's example uses t = 3; the seed s has two neighbors v1, v2.
constexpr double kT = 3.0;

TEST(PaperExampleTest, Table4FirstPushRound) {
  // Table 4: after the first round of push operations from s,
  //   q_s[s]    = 1/e^3                    (eta(0)/psi(0) of the unit residue)
  //   r1[v1] = r1[v2] = (e^3 - 1)/(2 e^3)  (the rest, split over 2 neighbors)
  Graph g = testing::MakePaperFigure1();
  ASSERT_EQ(g.Degree(0), 2u);  // s has exactly two neighbors
  HeatKernel kernel(kT);

  // r_max = 0.2: the seed's unit residue (> 0.2 * 2) is pushed; the hop-1
  // residues ~0.475 stay below their thresholds (0.2 * 3 for v1,
  // 0.2 * 6 for v2), so exactly one round happens.
  PushResult push = HkPush(g, kernel, /*seed=*/0, /*r_max=*/0.2);
  EXPECT_EQ(push.entries_processed, 1u);

  const double e3 = std::exp(kT);
  EXPECT_NEAR(push.reserve.Get(0), 1.0 / e3, 1e-12);
  EXPECT_NEAR(testing::ResidueAt(push.residues, 1, 1),
              (e3 - 1.0) / (2.0 * e3), 1e-12);
  EXPECT_NEAR(testing::ResidueAt(push.residues, 1, 2),
              (e3 - 1.0) / (2.0 * e3), 1e-12);
  // Nothing else has moved yet.
  EXPECT_EQ(push.reserve.nnz(), 1u);
  EXPECT_NEAR(push.residues.HopSum(0), 0.0, 1e-15);
}

TEST(PaperExampleTest, SecondRoundSpreadsOverNeighbors) {
  // With a lower threshold the hop-1 residues also push: v1 (degree 3)
  // converts eta(1)/psi(1) of its hop-1 residue into reserve (Table 5's
  // update) and forwards the rest in thirds. Reserves only grow, so after
  // the full drain v1's reserve is at least that converted fraction, and
  // every node of the example graph has received mass (Table 6's last row).
  Graph g = testing::MakePaperFigure1();
  HeatKernel kernel(kT);
  PushResult push = HkPush(g, kernel, 0, /*r_max=*/0.05);

  const double e3 = std::exp(kT);
  const double r1 = (e3 - 1.0) / (2.0 * e3);  // hop-1 residue of v1
  const double reserve_frac = kernel.Eta(1) / kernel.Psi(1);
  EXPECT_GE(push.reserve.Get(1), reserve_frac * r1 - 1e-12);

  // Mass conservation through the multi-round drain.
  EXPECT_NEAR(push.reserve.Sum() + push.residues.TotalSum(), 1.0, 1e-12);

  // Every node holds some mass (reserve or residue at some hop) by now.
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    double held = push.reserve.Get(v);
    for (uint32_t k = 0; k <= push.residues.max_hop(); ++k) {
      held += testing::ResidueAt(push.residues, k, v);
    }
    EXPECT_GT(held, 0.0) << "node " << v;
  }
}

TEST(PaperExampleTest, ResidueReductionShrinksWalkCount) {
  // The quantitative point of Example 1/Section 5.2: reducing residues by
  // beta_k * eps_r * delta * d(u) slashes alpha and therefore the number of
  // walks. Reproduce the effect end-to-end on the example graph.
  Graph g = testing::MakePaperFigure1();
  ApproxParams params;
  params.t = kT;
  params.eps_r = 0.5;
  params.delta = 2.0 * (1.0 - 4.0 / std::exp(3.0)) / 9.0;  // paper's delta
  params.p_f = 1e-2;

  TeaPlusOptions with_reduction, without_reduction;
  without_reduction.enable_residue_reduction = false;
  // Keep the push phase identical and force the walk phase.
  with_reduction.c = 0.5;
  without_reduction.c = 0.5;
  with_reduction.enable_early_exit = false;
  without_reduction.enable_early_exit = false;

  TeaPlusEstimator reduced(g, params, 1, with_reduction);
  TeaPlusEstimator unreduced(g, params, 1, without_reduction);
  EstimatorStats reduced_stats, unreduced_stats;
  reduced.Estimate(0, &reduced_stats);
  unreduced.Estimate(0, &unreduced_stats);
  EXPECT_LE(reduced_stats.num_walks, unreduced_stats.num_walks);
}

}  // namespace
}  // namespace hkpr
