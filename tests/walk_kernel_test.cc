// Tests for the interleaved walk kernel and its counter-based RNG: the
// determinism contract (results are a pure function of the walk index,
// independent of interleave width, range partitioning, and of queries
// running beside them on other threads), draw-exact agreement with the
// canonical KRandomWalk semantics, stranded walks, walk-step accounting,
// and agreement with exact HKPR.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/power_method.h"
#include "hkpr/tea_plus.h"
#include "hkpr/walk_kernel.h"
#include "test_util.h"

namespace hkpr {
namespace {

TEST(CounterRngTest, StreamIsPureFunctionOfSeedAndStream) {
  CounterRng a(42, 7);
  CounterRng b(42, 7);
  CounterRng other_stream(42, 8);
  CounterRng other_seed(43, 7);
  bool stream_differs = false;
  bool seed_differs = false;
  for (int i = 0; i < 64; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    stream_differs |= x != other_stream.Next();
    seed_differs |= x != other_seed.Next();
  }
  EXPECT_TRUE(stream_differs);
  EXPECT_TRUE(seed_differs);
}

TEST(CounterRngTest, ResetStreamRewindsToDrawZero) {
  CounterRng rng(11, 3);
  std::vector<uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng.Next());
  rng.ResetStream(11, 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.Next(), first[i]);
}

TEST(CounterRngTest, StreamsUnaffectedByInterleaving) {
  // The property the kernel's correctness rests on: draws from one stream
  // are the same no matter how draws from other streams are interleaved
  // between them.
  CounterRng solo(5, 100);
  std::vector<uint64_t> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(solo.Next());

  CounterRng interleaved(5, 100);
  CounterRng noise_a(5, 101), noise_b(99, 0);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < i % 4; ++j) {
      noise_a.Next();
      noise_b.UniformDouble();
    }
    EXPECT_EQ(interleaved.Next(), expected[i]);
  }
}

TEST(CounterRngTest, UniformDrawsAreInRangeAndCentered) {
  CounterRng rng(2026, 0);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    ASSERT_LT(rng.UniformInt(17), 17u);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(WalkKernelTest, EffectiveWidthDropsToOneOnCacheResidentGraphs) {
  const Graph small = testing::MakeCycle(64);
  ASSERT_LT(small.MemoryBytes(), kInterleaveMinGraphBytes);
  WalkKernelOptions options;
  options.width = 16;
  EXPECT_EQ(EffectiveWalkWidth(small, options), 1u);
}

// Alias-guided start set over a handful of (node, hop) pairs — the TEA/TEA+
// shape — on a degree-skewed generator graph.
struct StartFixture {
  Graph graph;
  HeatKernel kernel;
  std::vector<std::pair<NodeId, uint32_t>> entries;
  AliasSampler alias;

  StartFixture()
      : graph(PowerlawCluster(2000, 4, 0.3, 9)),
        kernel(5.0),
        entries({{0, 0}, {17, 1}, {500, 2}, {1999, 0}, {1234, 3}}),
        alias(std::vector<double>{4.0, 1.0, 0.5, 2.0, 0.25}) {}

  WalkStartSet Set() const { return {&alias, entries.data(), 0}; }
};

TEST(WalkKernelTest, BitIdenticalAcrossWidths) {
  const StartFixture f;
  const uint64_t n = 5000;
  const uint64_t seed = WalkStreamSeed(77, 0);

  std::vector<NodeId> base(n);
  std::vector<uint32_t> base_steps(n);
  const uint64_t base_total = RunInterleavedWalks(
      f.graph, f.kernel, f.Set(), seed, 0, n, base.data(), 1,
      base_steps.data());

  for (const uint32_t width : {4u, 8u, 16u, 64u}) {
    std::vector<NodeId> ends(n);
    std::vector<uint32_t> steps(n);
    const uint64_t total = RunInterleavedWalks(
        f.graph, f.kernel, f.Set(), seed, 0, n, ends.data(), width,
        steps.data());
    EXPECT_EQ(total, base_total) << "width " << width;
    EXPECT_EQ(ends, base) << "width " << width;
    EXPECT_EQ(steps, base_steps) << "width " << width;
  }
}

TEST(WalkKernelTest, BitIdenticalAcrossRangePartitions) {
  // Running [0, n) in one call must equal any partition into subranges —
  // the property a sharded walk phase relies on.
  const StartFixture f;
  const uint64_t n = 4000;
  const uint64_t seed = WalkStreamSeed(31337, 4);

  std::vector<NodeId> whole(n);
  RunInterleavedWalks(f.graph, f.kernel, f.Set(), seed, 0, n, whole.data(), 8);

  for (const std::vector<uint64_t> cuts :
       {std::vector<uint64_t>{0, n}, std::vector<uint64_t>{0, 1, n},
        std::vector<uint64_t>{0, 613, 1900, 1901, n}}) {
    std::vector<NodeId> pieced(n);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      RunInterleavedWalks(f.graph, f.kernel, f.Set(), seed, cuts[c],
                          cuts[c + 1] - cuts[c], pieced.data() + cuts[c], 16);
    }
    EXPECT_EQ(pieced, whole);
  }
}

TEST(WalkKernelTest, MatchesCanonicalReplayOfTheSameStreams) {
  // Independent recount: replay every walk with a fresh CounterRng through
  // the canonical KRandomWalk loop (random_walk.cc), draw for draw, and
  // require the same end nodes and step counts the kernel reported.
  const StartFixture f;
  const uint64_t n = 3000;
  const uint64_t seed = WalkStreamSeed(555, 2);
  std::vector<NodeId> ends(n);
  std::vector<uint32_t> steps(n);
  const uint64_t total = RunInterleavedWalks(
      f.graph, f.kernel, f.Set(), seed, 0, n, ends.data(), 8, steps.data());

  const uint32_t max_hop = f.kernel.MaxHop();
  const std::span<const double> term = f.kernel.TerminationProbs();
  uint64_t replay_total = 0;
  for (uint64_t w = 0; w < n; ++w) {
    CounterRng rng(seed, w);
    const uint32_t sample = f.alias.Sample(rng);
    NodeId node = f.entries[sample].first;
    uint32_t hop = f.entries[sample].second;
    uint32_t walked = 0;
    if (hop < max_hop && f.graph.Degree(node) != 0) {
      while (hop < max_hop) {
        if (rng.UniformDouble() <= term[hop]) break;
        node = f.graph.RandomNeighbor(node, rng);
        ++hop;
        ++walked;
        if (f.graph.Degree(node) == 0) break;
      }
    }
    EXPECT_EQ(ends[w], node) << "walk " << w;
    EXPECT_EQ(steps[w], walked) << "walk " << w;
    replay_total += walked;
  }
  EXPECT_EQ(total, replay_total);
}

TEST(WalkKernelTest, StrandedWalksStopInPlaceAcrossWidths) {
  // A star whose center is also linked to a pendant chain ending in an
  // isolated node is hard to build; instead: component {0,1} plus isolated
  // node 2. Walks starting at 2 must end at 2 with zero steps, identically
  // at every width; walks starting at hop >= MaxHop stop in place too.
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  const Graph graph = b.Build();
  ASSERT_EQ(graph.Degree(2), 0u);
  const HeatKernel kernel(3.0);

  const std::vector<std::pair<NodeId, uint32_t>> entries = {
      {2, 0}, {0, kernel.MaxHop() + 4}, {1, 0}};
  const AliasSampler alias(std::vector<double>{1.0, 1.0, 1.0});
  const WalkStartSet set{&alias, entries.data(), 0};
  const uint64_t n = 512;
  const uint64_t seed = WalkStreamSeed(8, 0);

  std::vector<NodeId> base(n);
  std::vector<uint32_t> base_steps(n);
  RunInterleavedWalks(graph, kernel, set, seed, 0, n, base.data(), 1,
                      base_steps.data());
  for (const uint32_t width : {4u, 16u}) {
    std::vector<NodeId> ends(n);
    std::vector<uint32_t> steps(n);
    RunInterleavedWalks(graph, kernel, set, seed, 0, n, ends.data(), width,
                        steps.data());
    EXPECT_EQ(ends, base);
    EXPECT_EQ(steps, base_steps);
  }
  // Cross-check the stranded/past-cap starts directly via replay of which
  // alias cell each stream drew.
  for (uint64_t w = 0; w < n; ++w) {
    CounterRng rng(seed, w);
    const uint32_t sample = alias.Sample(rng);
    if (sample == 0) {
      EXPECT_EQ(base[w], 2u);
      EXPECT_EQ(base_steps[w], 0u);
    } else if (sample == 1) {
      EXPECT_EQ(base[w], 0u);
      EXPECT_EQ(base_steps[w], 0u);
    }
  }
}

// Exact (bitwise, order-sensitive-free) comparison of two estimates.
std::map<NodeId, double> ToMap(const SparseVector& v) {
  std::map<NodeId, double> out;
  for (const auto& e : v.entries()) out[e.key] += e.value;
  return out;
}

ApproxParams TestParams(const Graph& graph) {
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1.0 / static_cast<double>(graph.NumNodes());
  params.p_f = 1e-4;
  return params;
}

/// Runs `query(width)` for each of `widths`, first one after another, then
/// all at once, one thread each. Parallelism is across queries, so queries
/// running side by side on one graph must not perturb each other.
template <typename Query>
void RunAtEveryWidthAndThreadCount(const std::vector<uint32_t>& widths,
                                   const Query& query) {
  for (const uint32_t width : widths) query(width);
  std::vector<std::thread> threads;
  for (const uint32_t width : widths) {
    threads.emplace_back([&query, width] { query(width); });
  }
  for (std::thread& thread : threads) thread.join();
}

/// A 120,000-node graph (4.6 MiB of CSR), above kInterleaveMinGraphBytes:
/// EffectiveWalkWidth runs every configured width as itself on it, so the
/// width loops below compare interleaved walks with scalar ones.
const Graph& WideGraph() {
  static const Graph graph = PowerlawCluster(120000, 4, 0.3, 4);
  return graph;
}

/// The serving-level guarantee: TEA+ at any configured width, alone or
/// beside other queries, produces the same estimate to the last bit.
/// `seq_stats` gets the width-8 reference run's stats.
void ExpectTeaPlusBitIdenticalAcrossWidthsAndThreadCounts(
    const TeaPlusOptions& base_options, NodeId query,
    EstimatorStats* seq_stats) {
  const Graph& graph = WideGraph();
  // Serving-grade coarse accuracy with a tight hop cap (as in
  // bench_service): the push phase leaves residue mass behind, so the walk
  // phase actually runs, about 10,000 walks per query.
  ApproxParams params = TestParams(graph);
  params.delta = 200.0 / static_cast<double>(graph.NumNodes());
  params.p_f = 1e-6;
  const uint64_t seed = 99;

  TeaPlusEstimator reference(graph, params, seed, base_options);
  const std::map<NodeId, double> expected =
      ToMap(reference.Estimate(query, seq_stats));
  ASSERT_GT(seq_stats->num_walks, 0u) << "walk phase must run for this test";

  RunAtEveryWidthAndThreadCount({1u, 4u, 8u, 16u}, [&](uint32_t width) {
    TeaPlusOptions options = base_options;
    options.walk_kernel.width = width;
    EXPECT_EQ(EffectiveWalkWidth(graph, options.walk_kernel), width);
    TeaPlusEstimator estimator(graph, params, seed, options);
    EstimatorStats stats;
    EXPECT_EQ(ToMap(estimator.Estimate(query, &stats)), expected)
        << "width " << width;
    EXPECT_EQ(stats.walk_steps, seq_stats->walk_steps);
    EXPECT_EQ(stats.num_walks, seq_stats->num_walks);
  });
}

TEST(WalkKernelTest, TeaPlusBitIdenticalAcrossWidthsAndThreadCounts) {
  TeaPlusOptions options;
  options.c = 1.0;
  EstimatorStats stats;
  ExpectTeaPlusBitIdenticalAcrossWidthsAndThreadCounts(options, 3, &stats);
}

TEST(WalkKernelTest, DrainedTeaPlusBitIdenticalAcrossWidthsAndThreadCounts) {
  // The server's configuration, draining past the hop cap. With c = 1 the
  // cap is K = 3 and the push threshold eps_r*delta/K is coarse: on seed
  // 41 the drain runs out of entries above it while Inequality (11) still
  // fails, so the query still walks (about 10,000 walks, after 60 more
  // pushes than under the hard cap).
  TeaPlusOptions hard_cap;
  hard_cap.c = 1.0;
  TeaPlusOptions drained = hard_cap;
  drained.drain_past_hop_cap = true;
  EstimatorStats hard_stats, stats;
  ExpectTeaPlusBitIdenticalAcrossWidthsAndThreadCounts(hard_cap, 41,
                                                       &hard_stats);
  ExpectTeaPlusBitIdenticalAcrossWidthsAndThreadCounts(drained, 41, &stats);
  EXPECT_GT(stats.push_operations, hard_stats.push_operations);
}

TEST(WalkKernelTest, MonteCarloBitIdenticalAcrossThreadCounts) {
  const Graph& graph = WideGraph();
  ApproxParams params = TestParams(graph);
  // Keep the walk count test-sized: about 4,300 walks.
  params.delta = 1e-2;
  params.p_f = 1e-2;
  const uint64_t seed = 7;
  const NodeId query = 42;

  MonteCarloEstimator reference(graph, params, seed);
  EstimatorStats ref_stats;
  const std::map<NodeId, double> expected =
      ToMap(reference.Estimate(query, &ref_stats));

  RunAtEveryWidthAndThreadCount({1u, 4u, 8u, 16u}, [&](uint32_t width) {
    WalkKernelOptions walk_kernel;
    walk_kernel.width = width;
    EXPECT_EQ(EffectiveWalkWidth(graph, walk_kernel), width);
    MonteCarloEstimator estimator(graph, params, seed, -1.0, walk_kernel);
    EstimatorStats stats;
    EXPECT_EQ(ToMap(estimator.Estimate(query, &stats)), expected)
        << "width " << width;
    EXPECT_EQ(stats.walk_steps, ref_stats.walk_steps);
  });
}

TEST(WalkKernelTest, WalkStepsAccountingMatchesInstrumentedRecount) {
  // EstimatorStats::walk_steps must equal an independent edge-traversal
  // recount: per-walk streams of WalkStreamSeed(seed, epoch 0), whose
  // per-walk counters the kernel reports separately.
  const Graph graph = PowerlawCluster(600, 3, 0.2, 21);
  ApproxParams params = TestParams(graph);
  params.p_f = 1e-2;
  const uint64_t seed = 13;
  const NodeId query = 5;

  MonteCarloEstimator mc(graph, params, seed);
  EstimatorStats stats;
  mc.Estimate(query, &stats);
  std::vector<NodeId> ends(stats.num_walks);
  std::vector<uint32_t> per_walk(stats.num_walks);
  WalkStartSet set;
  set.fixed_node = query;
  const uint64_t total = RunInterleavedWalks(
      graph, HeatKernel(params.t), set, WalkStreamSeed(seed, 0), 0,
      stats.num_walks, ends.data(), 8, per_walk.data());
  uint64_t recount = 0;
  for (const uint32_t s : per_walk) recount += s;
  EXPECT_EQ(total, recount);
  EXPECT_EQ(stats.walk_steps, recount);
}

TEST(WalkKernelTest, MonteCarloEstimateMatchesExactHkpr) {
  // Guards against the kernel silently biasing the walk distribution: its
  // Monte-Carlo estimate must agree with the exact HKPR vector to the
  // estimator's accuracy.
  const Graph graph = testing::MakeBarbell(8);
  ApproxParams params = TestParams(graph);
  params.p_f = 1e-6;
  MonteCarloEstimator mc(graph, params, 2);
  const SparseVector estimate = mc.Estimate(0);
  const std::vector<double> exact = ExactHkpr(graph, params.t, 0);
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    EXPECT_NEAR(estimate.Get(v), exact[v], 0.02) << v;
  }
}

}  // namespace
}  // namespace hkpr
