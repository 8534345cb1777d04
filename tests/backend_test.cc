// Tests for the pluggable estimator-backend layer (hkpr/backend.h): the
// registry round-trip (every registered name constructs, reseeds, and
// answers), stable-id properties, unknown-name handling, runtime
// registration of custom backends, and the backend-generic QueryExecutor.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/cluster_hkpr.h"
#include "baselines/hk_relax.h"
#include "graph/generators.h"
#include "hkpr/backend.h"
#include "hkpr/power_method.h"
#include "hkpr/queries.h"
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

void ExpectSameVector(const SparseVector& a, const SparseVector& b) {
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_DOUBLE_EQ(a.degree_offset(), b.degree_offset());
  for (const auto& e : a.entries()) EXPECT_DOUBLE_EQ(b.Get(e.key), e.value);
}

TEST(BackendRegistryTest, BuiltinBackendsAreRegistered) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  for (const char* name : {"tea+", "tea", "monte-carlo", "push", "hk-relax",
                           "cluster-hkpr"}) {
    const BackendInfo* info = registry.Find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->algorithm.empty()) << name;
  }
  EXPECT_EQ(registry.Find("no-such-backend"), nullptr);
  EXPECT_FALSE(registry.Contains(""));
}

TEST(BackendRegistryTest, StableIdsAreNameDerivedAndUnique) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  std::set<uint32_t> ids;
  for (const std::string& name : registry.Names()) {
    const BackendInfo* info = registry.Find(name);
    ASSERT_NE(info, nullptr);
    // The id is a pure function of the name (safe to persist in cache
    // keys) and unique across the registry.
    EXPECT_EQ(info->stable_id, StableBackendId(name)) << name;
    EXPECT_TRUE(ids.insert(info->stable_id).second)
        << "stable-id collision on " << name;
  }
}

void ExpectSameStats(const EstimatorStats& got, const EstimatorStats& want) {
  EXPECT_EQ(got.push_operations, want.push_operations);
  EXPECT_EQ(got.num_walks, want.num_walks);
  EXPECT_EQ(got.walk_steps, want.walk_steps);
  EXPECT_EQ(got.peak_bytes, want.peak_bytes);
}

TEST(BackendRegistryTest, EveryBackendConstructsReseedsAndAnswers) {
  // The registry round-trip: each registered backend (including any custom
  // ones registered by other tests) builds, honors the Reseed contract
  // (identical bits after an identical re-seed), and returns an estimate
  // with real mass. Its by-value Estimate() is EstimateInto() on a new
  // workspace, work counters included, and its peak_bytes (the Figure 5
  // number) is this query's alone: a larger query answered first leaves no
  // warmed state behind.
  Graph g = PowerlawCluster(300, 3, 0.3, 3);
  const ApproxParams params = TestParams(1e-3);
  NodeId hub = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (g.Degree(v) > g.Degree(hub)) hub = v;
  }
  ASSERT_GT(g.Degree(hub), g.Degree(9));

  EstimatorRegistry& registry = EstimatorRegistry::Global();
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE(name);
    auto estimator = registry.Create(name, g, params, 7);
    ASSERT_NE(estimator, nullptr);
    EXPECT_FALSE(estimator->name().empty());

    QueryWorkspace ws;
    estimator->Reseed(42);
    const SparseVector first = estimator->EstimateInto(9, ws).CompactCopy();
    EXPECT_GT(first.Sum(), 0.2);

    estimator->Reseed(42);
    const SparseVector& second = estimator->EstimateInto(9, ws);
    ExpectSameVector(second, first);

    EstimatorStats a, b, c;
    estimator->Reseed(42);
    const SparseVector by_value = estimator->Estimate(9, &a);
    estimator->Reseed(42);
    QueryWorkspace fresh;
    testing::ExpectBitIdentical(estimator->EstimateInto(9, fresh, &b),
                                by_value);
    ExpectSameStats(b, a);

    estimator->Estimate(hub);
    estimator->Reseed(42);
    testing::ExpectBitIdentical(estimator->Estimate(9, &c), by_value);
    ExpectSameStats(c, a);
  }
}

TEST(BackendRegistryTest, CustomBackendRegistersAndServes) {
  // The registry is open: a backend registered at runtime is immediately
  // selectable by every serving layer. "unit-mass" returns e_seed — a
  // well-behaved (deterministic, allocation-free) toy estimator.
  class UnitMassEstimator : public WorkspaceEstimator {
   public:
    const SparseVector& EstimateInto(NodeId seed, QueryWorkspace& ws,
                                     EstimatorStats* stats) override {
      if (stats != nullptr) stats->Reset();
      ws.result.Clear();
      ws.result.Add(seed, 1.0);
      return ws.result;
    }
    void Reseed(uint64_t /*seed*/) override {}
    std::string_view name() const override { return "unit-mass"; }
  };

  EstimatorRegistry& registry = EstimatorRegistry::Global();
  if (!registry.Contains("unit-mass")) {
    BackendInfo info;
    info.name = "unit-mass";
    info.algorithm = "returns the seed's indicator vector (test backend)";
    info.randomized = false;
    info.factory = [](const Graph&, const ApproxParams&, uint64_t,
                      const BackendContext&) {
      return std::unique_ptr<WorkspaceEstimator>(new UnitMassEstimator());
    };
    registry.Register(std::move(info));
  }

  Graph g = testing::MakeComplete(8);
  BackendSpec spec;
  spec.name = "unit-mass";
  QueryExecutor executor(g, TestParams(1e-2), 11, spec);
  EXPECT_EQ(executor.backend_name(), "unit-mass");
  EXPECT_EQ(executor.backend_id(), StableBackendId("unit-mass"));
  const SparseVector answer = executor.Answer(3, 0);
  EXPECT_EQ(answer.nnz(), 1u);
  EXPECT_DOUBLE_EQ(answer.Get(3), 1.0);
}

TEST(BackendRegistryTest, ClusterHkprBitIdenticalToEstimatePath) {
  // The registry's "cluster-hkpr" backend is the workspace-aware port of
  // the ClusterHKPR baseline: after Reseed(s), EstimateInto must replay a
  // fresh direct estimator with seed s bit-for-bit — including across
  // consecutive queries on one RNG stream — with t and eps mapped from
  // (params.t, params.eps_r).
  Graph g = PowerlawCluster(300, 3, 0.3, 3);
  ApproxParams params = TestParams(1e-3);
  params.t = 4.0;
  params.eps_r = 0.3;

  ClusterHkprOptions options;
  options.t = params.t;
  options.eps = params.eps_r;
  ClusterHkprEstimator direct(g, options, 99);

  auto ported =
      EstimatorRegistry::Global().Create("cluster-hkpr", g, params, 123);
  ported->Reseed(99);
  QueryWorkspace ws;
  ExpectSameVector(ported->EstimateInto(7, ws), direct.Estimate(7));
  // Second query without a re-seed: both continue the same stream.
  ExpectSameVector(ported->EstimateInto(42, ws), direct.Estimate(42));
}

TEST(BackendRegistryTest, EveryBackendAnswersAnIsolatedSeedExactly) {
  // Every walk from an isolated seed stops in place, so its exact HKPR is
  // e_seed. Every registered backend must answer that, not an empty vector
  // or the seed's e^-t share of it.
  const Graph base = PowerlawCluster(300, 3, 0.3, 5);
  const NodeId isolated = base.NumNodes();
  GraphBuilder builder(isolated + 1);
  for (NodeId v = 0; v < base.NumNodes(); ++v) {
    for (NodeId u : base.Neighbors(v)) {
      if (v < u) builder.AddEdge(v, u);
    }
  }
  const Graph g = builder.Build();
  ASSERT_EQ(g.Degree(isolated), 0u);
  const ApproxParams params = TestParams(1e-3);
  const std::vector<double> exact = ExactHkpr(g, params.t, isolated);
  ASSERT_NEAR(exact[isolated], 1.0, 1e-9);  // up to the truncated tail
  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const SparseVector estimate =
        EstimatorRegistry::Global().Create(name, g, params, 7)->Estimate(
            isolated);
    EXPECT_EQ(estimate.nnz(), 1u);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_NEAR(estimate.Get(v), exact[v], 1e-9) << "node " << v;
    }
  }
}

TEST(QueryExecutorTest, AnswersAreAFunctionOfSeedAndQueryIndex) {
  // The serving determinism contract, per backend: an executor's answer
  // depends only on (engine seed, query index, query seed) — interleaved
  // unrelated queries must not perturb a replay.
  Graph g = PowerlawCluster(300, 3, 0.3, 5);
  const ApproxParams params = TestParams(1e-3);
  for (const char* name : {"tea+", "tea", "monte-carlo", "push", "hk-relax"}) {
    SCOPED_TRACE(name);
    BackendSpec spec;
    spec.name = name;
    QueryExecutor executor(g, params, 99, spec);
    const SparseVector a = executor.Answer(7, 3);
    executor.Answer(11, 4);  // unrelated interleaved work
    const SparseVector b = executor.Answer(7, 3);
    ExpectSameVector(a, b);
    if (std::string_view(name) == "monte-carlo") {
      // Another index draws other walks for the same seed.
      EXPECT_TRUE(testing::AnyEntryDiffers(executor.Answer(7, 5), a));
    }
  }
}

TEST(QueryExecutorTest, DeterministicBackendMatchesDirectEstimator) {
  // A backend-generic executor serving a deterministic backend must return
  // exactly the direct estimator's bits (the per-query re-seed is a no-op).
  Graph g = PowerlawCluster(300, 3, 0.3, 8);
  const ApproxParams params = TestParams(1e-4);
  const std::vector<NodeId> seeds = {2, 8, 31, 100};

  BackendSpec spec;
  spec.name = "hk-relax";
  EXPECT_EQ(QueryExecutor(g, params, 55, spec).backend_name(), "HK-Relax");
  const auto answers = testing::AnswerInOrder(g, params, 55, seeds, spec);

  HkRelaxOptions relax;
  relax.t = params.t;
  relax.eps_a = params.eps_r * params.delta;
  HkRelaxEstimator direct(g, relax);
  ASSERT_EQ(answers.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameVector(answers[i], direct.Estimate(seeds[i]));
  }
}

TEST(QueryExecutorTest, MonteCarloAnswersDoNotDependOnTheExecutor) {
  // What lets service workers share a stream of queries: a Monte-Carlo
  // query answered by any executor, in any order, is bit-identical to the
  // sequential reference at the same query index. Here three executors
  // (as three workers would) take the indices round-robin, in reverse.
  Graph g = PowerlawCluster(300, 3, 0.3, 9);
  const ApproxParams params = TestParams(1e-3);
  const std::vector<NodeId> seeds = {1, 5, 9, 14, 22, 60};

  BackendSpec spec;
  spec.name = "monte-carlo";
  const auto expected = testing::AnswerInOrder(g, params, 77, seeds, spec);
  std::vector<QueryExecutor> workers;
  for (int w = 0; w < 3; ++w) workers.emplace_back(g, params, 77, spec);
  for (size_t i = seeds.size(); i-- > 0;) {
    SCOPED_TRACE(i);
    ExpectSameVector(workers[i % workers.size()].Answer(seeds[i], i),
                     expected[i]);
  }
}

}  // namespace
}  // namespace hkpr
