// Tests for HK-Push / HK-Push+ — including the Lemma 1 invariant and
// Theorem 2, validated against dense ground truth on small graphs.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/subgraph.h"
#include "hkpr/params.h"
#include "hkpr/power_method.h"
#include "hkpr/push.h"
#include "test_util.h"

namespace hkpr {
namespace {

/// Evaluates the Lemma 1 identity
///   rho_s[v] = q_s[v] + sum_u sum_k r_k[u] * h_u^(k)[v]
/// densely and returns the max absolute deviation from the exact HKPR.
double Lemma1Deviation(const Graph& g, const HeatKernel& kernel, NodeId seed,
                       const PushResult& push) {
  const std::vector<double> exact = ExactHkpr(g, kernel, seed);
  std::vector<double> reconstructed(g.NumNodes(), 0.0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    reconstructed[v] = push.reserve.Get(v);
  }
  for (uint32_t k = 0; k <= push.residues.max_hop(); ++k) {
    for (const auto& e : push.residues.Hop(k)) {
      if (e.value <= 0.0) continue;
      const std::vector<double> h = testing::ExactH(g, kernel, e.key, k);
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        reconstructed[v] += e.value * h[v];
      }
    }
  }
  double worst = 0.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    worst = std::max(worst, std::abs(reconstructed[v] - exact[v]));
  }
  return worst;
}

TEST(HkPushTest, Lemma1InvariantOnBarbell) {
  Graph g = testing::MakeBarbell(5);
  HeatKernel kernel(5.0);
  for (double r_max : {0.5, 0.1, 0.01, 0.001}) {
    PushResult push = HkPush(g, kernel, 0, r_max);
    EXPECT_LT(Lemma1Deviation(g, kernel, 0, push), 1e-9) << "r_max=" << r_max;
  }
}

TEST(HkPushTest, Lemma1InvariantOnRandomGraph) {
  Graph g = ErdosRenyiGnm(40, 120, 3);
  HeatKernel kernel(3.0);
  PushResult push = HkPush(g, kernel, 7, 0.005);
  EXPECT_LT(Lemma1Deviation(g, kernel, 7, push), 1e-9);
}

TEST(HkPushTest, ReserveIsLowerBoundOfExact) {
  Graph g = testing::MakeBarbell(6);
  HeatKernel kernel(5.0);
  const std::vector<double> exact = ExactHkpr(g, kernel, 0);
  PushResult push = HkPush(g, kernel, 0, 0.001);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_LE(push.reserve.Get(v), exact[v] + 1e-12) << v;
  }
}

TEST(HkPushTest, MassConservation) {
  // reserve total + residue total == 1 at every threshold.
  Graph g = PowerlawCluster(300, 3, 0.3, 4);
  HeatKernel kernel(5.0);
  for (double r_max : {0.1, 0.01, 0.001}) {
    PushResult push = HkPush(g, kernel, 11, r_max);
    EXPECT_NEAR(push.reserve.Sum() + push.residues.TotalSum(), 1.0, 1e-9);
  }
}

TEST(HkPushTest, SmallerThresholdMoreWork) {
  Graph g = PowerlawCluster(500, 4, 0.3, 5);
  HeatKernel kernel(5.0);
  PushResult coarse = HkPush(g, kernel, 10, 0.01);
  PushResult fine = HkPush(g, kernel, 10, 0.0001);
  EXPECT_GT(fine.push_operations, coarse.push_operations);
  EXPECT_LT(fine.residues.TotalSum(), coarse.residues.TotalSum());
}

TEST(HkPushTest, ResiduesRespectThreshold) {
  Graph g = PowerlawCluster(400, 3, 0.2, 6);
  HeatKernel kernel(5.0);
  const double r_max = 0.003;
  PushResult push = HkPush(g, kernel, 5, r_max);
  // Below the final hop, every remaining residue obeys r <= r_max * d(v).
  for (uint32_t k = 0; k < kernel.MaxHop(); ++k) {
    for (const auto& e : push.residues.Hop(k)) {
      EXPECT_LE(e.value, r_max * g.Degree(e.key) + 1e-12)
          << "hop " << k << " node " << e.key;
    }
  }
}

TEST(HkPushTest, WorkScalesInverseThreshold) {
  // Lemma 3: total pushes are O(1/r_max).
  Graph g = PowerlawCluster(2000, 4, 0.3, 7);
  HeatKernel kernel(5.0);
  PushResult push = HkPush(g, kernel, 3, 0.0005);
  EXPECT_LT(static_cast<double>(push.push_operations), 4.0 / 0.0005);
}

TEST(HkPushPlusTest, BudgetRespected) {
  Graph g = PowerlawCluster(2000, 5, 0.3, 8);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-7;
  options.hop_cap = 12;
  options.push_budget = 500;
  PushResult push = HkPushPlus(g, kernel, 3, options);
  EXPECT_TRUE(push.hit_budget);
  // The budget check happens before processing an entry; an entry may
  // overshoot by at most its own degree.
  EXPECT_LE(push.push_operations, options.push_budget + g.MaxDegree());
}

TEST(HkPushPlusTest, Theorem2AbsoluteErrorOnEarlyExit) {
  // When the early-exit test fires, the reserve alone must satisfy
  // |q[v] - rho[v]|/d(v) <= eps_r * delta for all v (Theorem 2).
  Graph g = testing::MakeBarbell(8);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 0.01;  // loose: early exit will fire
  options.hop_cap = 20;
  options.push_budget = 100000000;
  PushResult push = HkPushPlus(g, kernel, 0, options);
  ASSERT_TRUE(push.hit_absolute_target);
  const std::vector<double> exact = ExactHkpr(g, kernel, 0);
  const double eps_a = options.eps_r * options.delta;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const double err = std::abs(push.reserve.Get(v) - exact[v]) / g.Degree(v);
    EXPECT_LE(err, eps_a + 1e-12) << v;
  }
}

TEST(HkPushPlusTest, EarlyExitBoundIsSound) {
  // Whenever hit_absolute_target is reported, the exact residue scan must
  // confirm Inequality (11).
  Graph g = PowerlawCluster(500, 4, 0.3, 9);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-3;
  options.hop_cap = 10;
  options.push_budget = 1000000000;
  PushResult push = HkPushPlus(g, kernel, 1, options);
  if (push.hit_absolute_target) {
    EXPECT_LE(push.residues.MaxNormalizedResidueSum(g),
              options.eps_r * options.delta + 1e-12);
  }
}

TEST(HkPushPlusTest, Lemma1InvariantHolds) {
  // The invariant must hold for HK-Push+ too (same push operation).
  Graph g = ErdosRenyiGnm(30, 90, 10);
  HeatKernel kernel(4.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-4;
  options.hop_cap = 8;
  options.push_budget = 2000;
  PushResult push = HkPushPlus(g, kernel, 2, options);
  EXPECT_LT(Lemma1Deviation(g, kernel, 2, push), 1e-9);
}

TEST(HkPushPlusTest, HopCapLimitsResidueHops) {
  Graph g = PowerlawCluster(300, 3, 0.2, 11);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-5;
  options.hop_cap = 4;
  options.push_budget = 1000000;
  PushResult push = HkPushPlus(g, kernel, 0, options);
  EXPECT_EQ(push.residues.max_hop(), 4u);
  // No residue past the cap was ever pushed, so hop sums at the cap are the
  // only ones that can be large; just check the table depth is respected.
  EXPECT_GE(push.residues.HopSum(4), 0.0);
}

TEST(HkPushPlusTest, MassConservation) {
  Graph g = PowerlawCluster(300, 3, 0.2, 12);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1e-6;
  options.hop_cap = 10;
  options.push_budget = 100000;
  PushResult push = HkPushPlus(g, kernel, 4, options);
  EXPECT_NEAR(push.reserve.Sum() + push.residues.TotalSum(), 1.0, 1e-9);
}

TEST(HkPushPlusTest, ReserveFractionOfOneSpreadsNothing) {
  // At t = 1e-17, e^{-t} rounds to 1, so the seed's push at hop 0 converts
  // all of its residue: the zero shares are skipped, not added.
  Graph g = testing::MakeBarbell(5);
  HeatKernel kernel(1e-17);
  ASSERT_EQ(kernel.ReserveFraction(0), 1.0);
  HkPushPlusOptions options;
  options.delta = 1e-3;
  options.drain_past_hop_cap = true;
  PushResult push = HkPushPlus(g, kernel, 2, options);
  EXPECT_EQ(push.entries_processed, 1u);
  EXPECT_EQ(push.reserve.Get(2), 1.0);
  EXPECT_EQ(push.reserve.nnz(), 1u);
  EXPECT_EQ(push.residues.TotalNonZeros(), 0u);
  EXPECT_EQ(push.residues.TotalSum(), 0.0);
}

/// HK-Push+ at TEA+'s hop cap and push budget (c = 2.5) on an R-MAT graph
/// at delta = 0.1/n, where a few seeds of 0..199 leave residue at hop K
/// that keeps Inequality (11) from certifying.
class HkPushPlusDrainTest : public ::testing::Test {
 protected:
  static constexpr NodeId kSeeds = 200;

  HkPushPlusDrainTest()
      : graph_(RestrictToLargestComponent(Rmat(12, 16.0, 5))), kernel_(5.0) {
    ApproxParams params;
    params.t = 5.0;
    params.eps_r = 0.5;
    params.delta = 0.1 / graph_.NumNodes();
    params.p_f = 1e-6;
    options_.eps_r = params.eps_r;
    options_.delta = params.delta;
    options_.hop_cap = ChooseHopCap(2.5, params, graph_.AverageDegree(),
                                    kernel_.MaxHop());
    options_.push_budget = static_cast<uint64_t>(std::ceil(
        OmegaTeaPlus(params, ComputePfPrime(graph_, params.p_f)) * params.t /
        2.0));
  }

  HkPushPlusOptions Drained() const {
    HkPushPlusOptions options = options_;
    options.drain_past_hop_cap = true;
    return options;
  }

  /// TEA+'s Line 7 test on a finished push.
  bool Certifies(const PushCounters& push, const QueryWorkspace& ws) const {
    return push.hit_absolute_target ||
           ws.residues.MaxNormalizedResidueSum(graph_) <=
               options_.eps_r * options_.delta;
  }

  /// Seeds of 0..kSeeds-1 on which the hard-capped push does not certify.
  std::vector<NodeId> HardCapWalkers() const {
    std::vector<NodeId> walkers;
    QueryWorkspace ws;
    for (NodeId s = 0; s < kSeeds; ++s) {
      if (!Certifies(HkPushPlusInto(graph_, kernel_, s, options_, ws), ws)) {
        walkers.push_back(s);
      }
    }
    return walkers;
  }

  Graph graph_;
  HeatKernel kernel_;
  HkPushPlusOptions options_;
};

TEST_F(HkPushPlusDrainTest, SeedsCertifyingAtTheCapAreBitIdentical) {
  // The exact test runs before any extension, so a seed that certifies at
  // K keeps its reserve, residues, hop sums and counters to the bit; the
  // drained table only has more hops, all empty.
  const uint32_t cap = options_.hop_cap;
  ASSERT_LT(cap, kernel_.MaxHop());
  QueryWorkspace hard_ws, drained_ws;
  size_t certified = 0;
  for (NodeId s = 0; s < kSeeds; ++s) {
    const PushCounters hard =
        HkPushPlusInto(graph_, kernel_, s, options_, hard_ws);
    if (!Certifies(hard, hard_ws)) continue;
    ++certified;
    const PushCounters drained =
        HkPushPlusInto(graph_, kernel_, s, Drained(), drained_ws);
    SCOPED_TRACE(::testing::Message() << "seed " << s);
    testing::ExpectBitIdentical(drained_ws.result, hard_ws.result);
    EXPECT_EQ(drained.push_operations, hard.push_operations);
    EXPECT_EQ(drained.entries_processed, hard.entries_processed);
    EXPECT_EQ(drained.hit_absolute_target, hard.hit_absolute_target);
    EXPECT_EQ(drained.hit_budget, hard.hit_budget);

    const ResidueTable& want = hard_ws.residues;
    const ResidueTable& got = drained_ws.residues;
    ASSERT_EQ(want.max_hop(), cap);
    ASSERT_EQ(got.max_hop(), kernel_.MaxHop());
    for (uint32_t k = 0; k <= got.max_hop(); ++k) {
      if (k > cap) {
        EXPECT_TRUE(got.Hop(k).empty()) << "hop " << k;
        EXPECT_EQ(std::bit_cast<uint64_t>(got.HopSum(k)), 0u) << "hop " << k;
        continue;
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(got.HopSum(k)),
                std::bit_cast<uint64_t>(want.HopSum(k)))
          << "hop " << k;
      ASSERT_EQ(got.Hop(k).size(), want.Hop(k).size()) << "hop " << k;
      for (size_t i = 0; i < want.Hop(k).size(); ++i) {
        ASSERT_EQ(got.Hop(k)[i].key, want.Hop(k)[i].key);
        ASSERT_EQ(std::bit_cast<uint64_t>(got.Hop(k)[i].value),
                  std::bit_cast<uint64_t>(want.Hop(k)[i].value))
            << "hop " << k << " entry " << i;
      }
    }
  }
  EXPECT_EQ(certified, kSeeds - 5);  // all but the walkers below
}

TEST_F(HkPushPlusDrainTest, HardCapWalkersCertifyByPushingPastTheCap) {
  const std::vector<NodeId> walkers = HardCapWalkers();
  ASSERT_EQ(walkers, (std::vector<NodeId>{6, 27, 46, 73, 141}));
  const uint32_t cap = options_.hop_cap;
  QueryWorkspace hard_ws, drained_ws;
  for (const NodeId s : walkers) {
    SCOPED_TRACE(::testing::Message() << "seed " << s);
    const PushCounters hard =
        HkPushPlusInto(graph_, kernel_, s, options_, hard_ws);
    const PushCounters drained =
        HkPushPlusInto(graph_, kernel_, s, Drained(), drained_ws);
    EXPECT_TRUE(Certifies(drained, drained_ws));
    EXPECT_FALSE(drained.hit_budget);
    EXPECT_GT(drained.push_operations, hard.push_operations);

    // Every extra push is at a hop >= K: hops below K are untouched, and
    // hop K keeps each hard-cap entry or has pushed it out.
    const ResidueTable& want = hard_ws.residues;
    const ResidueTable& got = drained_ws.residues;
    for (uint32_t k = 0; k <= cap; ++k) {
      ASSERT_EQ(got.Hop(k).size(), want.Hop(k).size()) << "hop " << k;
      for (size_t i = 0; i < want.Hop(k).size(); ++i) {
        const ResidueTable::Entry& e = got.Hop(k)[i];
        ASSERT_EQ(e.key, want.Hop(k)[i].key);
        if (k == cap && e.value == 0.0) continue;
        ASSERT_EQ(std::bit_cast<uint64_t>(e.value),
                  std::bit_cast<uint64_t>(want.Hop(k)[i].value))
            << "hop " << k << " entry " << i;
      }
    }
    EXPECT_NEAR(drained_ws.result.Sum() + got.TotalSum(), 1.0, 1e-12);
  }
}

TEST_F(HkPushPlusDrainTest, PushBudgetStopsTheDrain) {
  // A budget one push operation above the hard cap's count lets the drain
  // push one entry past K; a walker that needs more entries than that
  // stops on the budget.
  size_t stopped = 0;
  QueryWorkspace hard_ws, drained_ws;
  for (const NodeId s : HardCapWalkers()) {
    const PushCounters hard =
        HkPushPlusInto(graph_, kernel_, s, options_, hard_ws);
    const PushCounters unlimited =
        HkPushPlusInto(graph_, kernel_, s, Drained(), drained_ws);
    if (unlimited.entries_processed < hard.entries_processed + 2) continue;
    HkPushPlusOptions options = Drained();
    options.push_budget = hard.push_operations + 1;
    const PushCounters drained =
        HkPushPlusInto(graph_, kernel_, s, options, drained_ws);
    EXPECT_TRUE(drained.hit_budget) << "seed " << s;
    EXPECT_EQ(drained.entries_processed, hard.entries_processed + 1)
        << "seed " << s;
    ++stopped;
  }
  EXPECT_GT(stopped, 0u);
}

TEST(ResidueTableTest, SumsMaintained) {
  ResidueTable table(3);
  table.OpenFrontier(0, 8);
  table.AddToFrontier(5, 0.5);
  table.AddToFrontier(6, 0.25);
  table.OpenFrontier(2, 8);  // seals hop 0; hop 1 stays empty
  table.AddToFrontier(5, 0.1);
  table.SealFrontier();
  EXPECT_DOUBLE_EQ(table.HopSum(0), 0.75);
  EXPECT_DOUBLE_EQ(table.HopSum(1), 0.0);
  EXPECT_DOUBLE_EQ(table.HopSum(2), 0.1);
  EXPECT_DOUBLE_EQ(table.TotalSum(), 0.85);
  ASSERT_EQ(table.Hop(0)[0].key, 5u);
  table.ZeroEntry(0, 0);
  EXPECT_DOUBLE_EQ(table.HopSum(0), 0.25);
  EXPECT_DOUBLE_EQ(testing::ResidueAt(table, 0, 5), 0.0);
}

TEST(ResidueTableTest, RecomputeAfterDirectMutation) {
  ResidueTable table(1);
  table.OpenFrontier(0, 3);
  table.AddToFrontier(1, 0.6);
  table.OpenFrontier(1, 3);
  table.AddToFrontier(2, 0.4);
  table.SealFrontier();
  for (auto& e : table.MutableHop(0)) e.value *= 0.5;
  table.RecomputeSums();
  EXPECT_DOUBLE_EQ(table.HopSum(0), 0.3);
  EXPECT_DOUBLE_EQ(table.TotalSum(), 0.7);
}

TEST(ResidueTableTest, MaxNormalizedResidueSum) {
  Graph g = testing::MakeStar(4);  // d(0)=3, d(1..3)=1
  ResidueTable table(1);
  table.OpenFrontier(0, g.NumNodes());
  table.AddToFrontier(0, 0.9);  // 0.9/3 = 0.3
  table.OpenFrontier(1, g.NumNodes());
  table.AddToFrontier(1, 0.2);  // 0.2/1 = 0.2
  table.AddToFrontier(2, 0.1);  // 0.1
  table.SealFrontier();
  EXPECT_DOUBLE_EQ(table.MaxNormalizedResidueSum(g), 0.3 + 0.2);
}

TEST(ResidueTableTest, NonZeroCountSkipsZeroedEntries) {
  ResidueTable table(0);
  table.OpenFrontier(0, 3);
  table.AddToFrontier(1, 0.5);
  table.AddToFrontier(2, 0.5);
  table.SealFrontier();
  table.ZeroEntry(0, 0);
  EXPECT_EQ(table.TotalNonZeros(), 1u);
  EXPECT_EQ(table.TotalEntries(), 2u);
}

TEST(ResidueTableTest, SealKeepsFirstTouchOrderAndAccumulatedValues) {
  ResidueTable table(1);
  table.OpenFrontier(1, 10);
  const double first = table.AddToFrontier(7, 0.25);
  table.AddToFrontier(2, 0.5);
  const double again = table.AddToFrontier(7, 0.125);
  table.AddToFrontier(9, 1.0);
  EXPECT_EQ(first, 0.25);
  EXPECT_EQ(again, 0.375);
  table.SealFrontier();

  const std::vector<ResidueTable::Entry>& hop = table.Hop(1);
  ASSERT_EQ(hop.size(), 3u);
  EXPECT_EQ(hop[0].key, 7u);
  EXPECT_EQ(hop[0].value, 0.375);
  EXPECT_EQ(hop[1].key, 2u);
  EXPECT_EQ(hop[1].value, 0.5);
  EXPECT_EQ(hop[2].key, 9u);
  EXPECT_EQ(hop[2].value, 1.0);
  EXPECT_EQ(table.HopSum(1), 0.25 + 0.5 + 0.125 + 1.0);
  EXPECT_TRUE(table.Hop(0).empty());

  // Sealing is idempotent and leaves the entries alone.
  table.SealFrontier();
  EXPECT_EQ(table.Hop(1).size(), 3u);
  EXPECT_EQ(table.Hop(1)[0].value, 0.375);
}

TEST(ResidueTableTest, ResetAfterEarlyExitLeavesNoFrontierState) {
  // An early exit leaves residue at a hop past the last drained one. The
  // next query on the same table must see an all-zero, untouched frontier:
  // first touches are recorded afresh and no value carries over.
  Graph g = testing::MakeBarbell(8);
  HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 0.01;  // loose: early exit fires
  options.hop_cap = 20;
  QueryWorkspace ws;
  const PushCounters push = HkPushPlusInto(g, kernel, 0, options, ws);
  ASSERT_TRUE(push.hit_absolute_target);
  ASSERT_GT(ws.residues.TotalEntries(), 1u);

  ws.residues.Reset(2);
  EXPECT_EQ(ws.residues.TotalEntries(), 0u);
  EXPECT_EQ(ws.residues.TotalSum(), 0.0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ws.residues.OpenFrontier(1, g.NumNodes());
    EXPECT_EQ(ws.residues.AddToFrontier(v, 0.5), 0.5) << "node " << v;
    ws.residues.SealFrontier();
    ASSERT_EQ(ws.residues.Hop(1).size(), 1u);
    EXPECT_EQ(ws.residues.Hop(1)[0].key, v);
    ws.residues.Reset(2);
  }

  // A Reset with the frontier still open clears it too.
  ws.residues.OpenFrontier(0, g.NumNodes());
  ws.residues.AddToFrontier(3, 1.0);
  ws.residues.Reset(0);
  ws.residues.OpenFrontier(0, g.NumNodes());
  EXPECT_EQ(ws.residues.AddToFrontier(3, 0.25), 0.25);
  ws.residues.SealFrontier();
  ASSERT_EQ(ws.residues.Hop(0).size(), 1u);
  EXPECT_EQ(ws.residues.Hop(0)[0].key, 3u);
  EXPECT_EQ(ws.residues.HopSum(0), 0.25);
}

TEST(ResidueTableTest, SealListsEntriesAboveThresholdAndReturnsHopMax) {
  // Star with center 0 (degree 3) and leaves 1..3 (degree 1), plus an
  // isolated node 4: sealing lists, in entry order, the entries with
  // r > threshold * d(v), and returns max r/d(v) over nodes of degree > 0.
  const Graph star = testing::MakeStar(4);
  std::vector<uint64_t> offsets(star.offsets().begin(), star.offsets().end());
  offsets.push_back(offsets.back());  // node 4, isolated
  const Graph g = Graph::FromCsr(
      std::move(offsets), {star.adjacency().begin(), star.adjacency().end()});
  ASSERT_EQ(g.Degree(4), 0u);

  ResidueTable table(1);
  std::vector<uint32_t> push_list = {7, 7, 7};  // cleared by the seal
  table.OpenFrontier(1, g.NumNodes());
  table.AddToFrontier(2, 0.05);  // 0.05 / 1: below 0.1
  table.AddToFrontier(0, 0.6);   // 0.6 / 3 = 0.2: listed
  table.AddToFrontier(4, 9.0);   // degree 0: never listed, no max
  table.AddToFrontier(3, 0.25);  // 0.25 / 1: listed, the max
  table.AddToFrontier(2, 0.1);   // now 0.15 / 1: listed
  EXPECT_EQ(table.SealFrontier(g, 0.1, push_list), 0.25);
  EXPECT_EQ(push_list, (std::vector<uint32_t>{0, 1, 3}));
  const std::vector<ResidueTable::Entry>& hop = table.Hop(1);
  ASSERT_EQ(hop.size(), 4u);
  EXPECT_EQ(hop[0].key, 2u);
  EXPECT_EQ(hop[0].value, 0.05 + 0.1);
  EXPECT_EQ(hop[2].key, 4u);
  EXPECT_EQ(hop[2].value, 9.0);

  // The frontier is clear again: a new hop starts from zero.
  table.OpenFrontier(0, g.NumNodes());
  EXPECT_EQ(table.AddToFrontier(2, 0.5), 0.5);
  EXPECT_EQ(table.SealFrontier(g, 1.0, push_list), 0.5);
  EXPECT_TRUE(push_list.empty());
  EXPECT_EQ(table.Hop(0).size(), 1u);
}

}  // namespace
}  // namespace hkpr
