// Tests for per-query plans and the adaptive backend router
// (hkpr/router.h) and their integration through the serving stack:
// override composition and plan resolution, the rule policy's decisions,
// routed results bit-identical to directly invoking the chosen backend,
// plan-keyed caching (distinct plans never share entries), live backend
// switches under load (no drain, no stale plans), and per-graph plan
// defaults in MultiGraphService.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "hkpr/backend.h"
#include "hkpr/queries.h"
#include "hkpr/router.h"
#include "service/graph_store.h"
#include "service/multi_graph_service.h"
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

/// A 602-node graph whose seeds span every routing class: a 600-cycle
/// (nodes 0..599, degree 2-3), a hub (node 600, degree 100 >> 8x the ~2.3
/// average), and a pendant leaf (node 601, degree 1). Large enough that
/// the small-graph rule does not fire.
Graph MakeRoutingGraph() {
  GraphBuilder b(602);
  for (uint32_t v = 0; v < 600; ++v) b.AddEdge(v, (v + 1) % 600);
  for (uint32_t v = 0; v < 100; ++v) b.AddEdge(600, v);
  b.AddEdge(601, 300);
  return b.Build();
}

constexpr NodeId kHub = 600;
constexpr NodeId kLeaf = 601;
constexpr NodeId kMid = 450;

TEST(QueryPlanTest, OverridesComposeOntoDefaults) {
  const ApproxParams base = TestParams(1e-3);

  PlanOverrides none;
  EXPECT_TRUE(none.empty());
  ApproxParams same = ApplyParamOverrides(base, none);
  EXPECT_EQ(same.t, base.t);
  EXPECT_EQ(same.eps_r, base.eps_r);
  EXPECT_EQ(same.delta, base.delta);
  EXPECT_EQ(same.p_f, base.p_f);

  PlanOverrides some;
  some.t = 2.5;
  some.delta = 1e-2;
  EXPECT_FALSE(some.empty());
  ApproxParams merged = ApplyParamOverrides(base, some);
  EXPECT_EQ(merged.t, 2.5);
  EXPECT_EQ(merged.eps_r, base.eps_r);  // untouched
  EXPECT_EQ(merged.delta, 1e-2);
  EXPECT_EQ(merged.p_f, base.p_f);
}

TEST(QueryPlanTest, ResolvePicksBackendAndValidatesNames) {
  const Graph g = MakeRoutingGraph();
  const ApproxParams params = TestParams(1e-3);
  const RuleBasedRouter& policy = DefaultRouter();

  // No overrides, concrete default: the default's plan.
  std::optional<QueryPlan> plan =
      ResolveQueryPlan(g, kMid, "tea+", params, {}, policy);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->backend, "tea+");
  EXPECT_EQ(plan->backend_id, StableBackendId("tea+"));
  EXPECT_EQ(plan->params.t, params.t);

  // Request override wins over the default.
  PlanOverrides pick;
  pick.backend = "hk-relax";
  pick.t = 3.0;
  plan = ResolveQueryPlan(g, kMid, "tea+", params, pick, policy);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->backend, "hk-relax");
  EXPECT_EQ(plan->backend_id, StableBackendId("hk-relax"));
  EXPECT_EQ(plan->params.t, 3.0);

  // "auto" (as default or as override) resolves through the policy to a
  // concrete registered name — never to "auto" itself.
  plan = ResolveQueryPlan(g, kMid, "auto", params, {}, policy);
  ASSERT_TRUE(plan.has_value());
  EXPECT_NE(plan->backend, kAutoBackend);
  EXPECT_TRUE(EstimatorRegistry::Global().Contains(plan->backend));

  PlanOverrides route;
  route.backend = "auto";
  plan = ResolveQueryPlan(g, kMid, "tea+", params, route, policy);
  ASSERT_TRUE(plan.has_value());
  EXPECT_NE(plan->backend, kAutoBackend);

  // An unknown *requested* backend reports gracefully.
  PlanOverrides bogus;
  bogus.backend = "no-such-backend";
  EXPECT_FALSE(
      ResolveQueryPlan(g, kMid, "tea+", params, bogus, policy).has_value());

  // Out-of-range *requested* parameters report gracefully too — external
  // input must never reach an estimator constructor's check-fail.
  for (auto&& broken : {PlanOverrides{.t = -1.0}, PlanOverrides{.t = 1e9},
                        PlanOverrides{.eps_r = 1.5},
                        PlanOverrides{.delta = 0.0},
                        PlanOverrides{.delta = 2.0}}) {
    EXPECT_FALSE(
        ResolveQueryPlan(g, kMid, "tea+", params, broken, policy).has_value());
  }
  EXPECT_FALSE(ServableParams(ApplyParamOverrides(params, {.eps_r = 0.0})));
  EXPECT_TRUE(ServableParams(params));
  // delta = 1 is the largest: with eps_r < 1, HK-Relax's eps_r * delta
  // stays below 1 (delta = 2 at eps_r = 0.9 aborted the server).
  EXPECT_TRUE(ServableParams(ApplyParamOverrides(params, {.delta = 1.0})));
}

TEST(RouterTest, RuleBasedRoutesOnDegreeTAndScale) {
  const Graph g = MakeRoutingGraph();
  const RuleBasedRouter router;  // default thresholds
  RoutingQuery query;
  query.num_nodes = g.NumNodes();
  query.num_edges = g.NumEdges();
  query.avg_degree = g.AverageDegree();
  query.params = TestParams(1e-3);

  // Default regime (t = 5, mid-degree seed, big graph): TEA+ — the
  // paper's headline winner. kMid sits on the cycle with degree 2, just
  // above the 0.5 x avg-degree (~2.33) low-degree cut of 1.17.
  query.seed = kMid;
  query.seed_degree = g.Degree(kMid);
  EXPECT_EQ(router.Route(query), "tea+");

  // Hub seed: TEA+ as well — its push phase certifies early on dense
  // frontiers, so the hub is its cheapest case.
  query.seed = kHub;
  query.seed_degree = g.Degree(kHub);
  EXPECT_EQ(router.Route(query), "tea+");

  // Low-degree seed at moderate t: below the measured crossover, route to
  // deterministic push.
  query.seed = kLeaf;
  query.seed_degree = g.Degree(kLeaf);
  EXPECT_EQ(router.Route(query), "hk-relax");
  // ... but not when the series is long: the low-degree rule is t-gated.
  query.params.t = 9.0;
  EXPECT_EQ(router.Route(query), "tea+");

  // Small t routes to push regardless of the seed.
  query.params.t = 0.5;
  query.seed = kHub;
  query.seed_degree = g.Degree(kHub);
  EXPECT_EQ(router.Route(query), "hk-relax");

  // Tiny graph: Monte-Carlo (omega ~ n is trivial there).
  query.params.t = 5.0;
  query.num_nodes = 100;
  EXPECT_EQ(router.Route(query), "monte-carlo");

  // Thresholds are knobs: a custom policy can move every cut (and a
  // deployment that measures the opposite crossover can flip the rule).
  RuleBasedRouterOptions custom;
  custom.small_t = 10.0;
  custom.push_backend = "push";
  const RuleBasedRouter eager(custom);
  EXPECT_EQ(eager.Route(query), "push");
}

TEST(RouterTest, ExecutorPlansAreLazyAndBitIdenticalToDedicatedBackends) {
  const Graph g = MakeRoutingGraph();
  const ApproxParams params = TestParams(1e-3);
  const uint64_t kSeed = 1234;

  QueryExecutor executor(g, params, kSeed, BackendSpec{});  // default tea+
  EXPECT_EQ(executor.num_plan_estimators(), 1u);

  // Dedicated single-backend executors as the ground truth.
  std::map<std::string, std::unique_ptr<QueryExecutor>> direct;
  for (const char* name : {"tea+", "hk-relax", "monte-carlo"}) {
    BackendSpec spec;
    spec.name = name;
    direct.emplace(name, std::make_unique<QueryExecutor>(
                             g, params, kSeed, ResolvedSpec(spec, g, params)));
  }

  const std::vector<NodeId> seeds = {kMid, kHub, kLeaf, 0, 599, kHub, kMid};
  std::set<std::string> routed_backends;
  for (size_t i = 0; i < seeds.size(); ++i) {
    std::optional<QueryPlan> plan = ResolveQueryPlan(
        g, seeds[i], kAutoBackend, params, {}, DefaultRouter());
    ASSERT_TRUE(plan.has_value());
    routed_backends.insert(plan->backend);
    const SparseVector routed = executor.Answer(seeds[i], i, *plan);
    const SparseVector reference = direct.at(plan->backend)->Answer(seeds[i], i);
    ExpectSameVector(routed, reference);
  }
  // One estimator per distinct plan, built lazily — not per query.
  EXPECT_EQ(executor.num_plan_estimators(), routed_backends.size());

  // Explicit t-override plans are distinct estimators too, and also
  // bit-identical to a dedicated executor constructed on those params.
  PlanOverrides small_t;
  small_t.t = 0.5;  // the small-t rule routes any seed to push
  std::optional<QueryPlan> hub_plan = ResolveQueryPlan(
      g, kHub, kAutoBackend, params, small_t, DefaultRouter());
  ASSERT_TRUE(hub_plan.has_value());
  EXPECT_EQ(hub_plan->backend, "hk-relax");
  const SparseVector routed = executor.Answer(kHub, 99, *hub_plan);
  BackendSpec spec;
  spec.name = hub_plan->backend;
  QueryExecutor dedicated(g, hub_plan->params, kSeed, spec);
  ExpectSameVector(routed, dedicated.Answer(kHub, 99));
}

TEST(RouterTest, ExecutorAnswersExplicitPlans) {
  const Graph g = MakeRoutingGraph();
  const ApproxParams params = TestParams(1e-3);
  const std::vector<NodeId> seeds = {kMid, kHub, kLeaf, 7, 123};

  QueryExecutor executor(g, params, 77);
  EXPECT_EQ(executor.default_plan().backend, "tea+");

  // A plan naming another backend runs that backend, bit-identical to an
  // executor constructed on it directly (same engine seed and query
  // indices, answered in order).
  PlanOverrides pick;
  pick.backend = "hk-relax";
  std::optional<QueryPlan> plan = ResolveQueryPlan(
      g, seeds.front(), "tea+", params, pick, DefaultRouter());
  ASSERT_TRUE(plan.has_value());
  BackendSpec spec;
  spec.name = "hk-relax";
  const std::vector<SparseVector> reference =
      testing::AnswerInOrder(g, params, 77, seeds, spec);
  for (size_t i = 0; i < seeds.size(); ++i) {
    ExpectSameVector(executor.Answer(seeds[i], i, *plan), reference[i]);
  }
}

TEST(RoutedServiceTest, AutoPlansBitIdenticalToChosenBackends) {
  const Graph g = MakeRoutingGraph();
  const ApproxParams params = TestParams(1e-3);
  const uint64_t kSeed = 99;

  ServiceOptions options;
  options.backend.name = std::string(kAutoBackend);
  options.num_workers = 2;
  options.cache_capacity = 0;  // every query computes
  AsyncQueryService service(g, params, kSeed, options);

  // Sequential submit-then-wait pins query index i to seeds[i]. The mix
  // of cycle, hub and leaf seeds (plus a t override riding along) makes
  // the router pick at least two distinct backends.
  SubmitOptions submit;
  submit.plan.t = 2.5;
  const std::vector<NodeId> seeds = {kMid, kHub, kLeaf, 42, kHub};
  std::map<std::string, std::unique_ptr<QueryExecutor>> direct;
  std::set<std::string> routed;
  for (size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult result =
        service.Submit(seeds[i], submit).result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);

    std::optional<QueryPlan> plan = ResolveQueryPlan(
        g, seeds[i], kAutoBackend, params, submit.plan, DefaultRouter());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(result.backend, plan->backend);
    EXPECT_EQ(result.backend_id, plan->backend_id);
    routed.insert(result.backend);

    auto it = direct.find(plan->backend);
    if (it == direct.end()) {
      BackendSpec spec;
      spec.name = plan->backend;
      it = direct
               .emplace(plan->backend,
                        std::make_unique<QueryExecutor>(g, plan->params,
                                                        kSeed, spec))
               .first;
    }
    // Bit-identical to directly invoking the routed backend at the same
    // (engine seed, query index).
    ExpectSameVector(*result.estimate, it->second->Answer(seeds[i], i));
  }
  EXPECT_GE(routed.size(), 2u) << "workload failed to exercise the router";
}

TEST(RoutedServiceTest, CacheIsKeyedOnTheFullPlan) {
  const Graph g = MakeRoutingGraph();
  const ApproxParams params = TestParams(1e-3);

  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 128;
  AsyncQueryService service(g, params, 7, options);

  const NodeId seed = kMid;
  auto submit_and_get = [&](const SubmitOptions& submit) {
    QueryResult result = service.Submit(seed, submit).result.get();
    EXPECT_EQ(result.status, QueryStatus::kOk);
    return result;
  };

  // Default plan: first computes, repeat hits.
  EXPECT_FALSE(submit_and_get({}).from_cache);
  EXPECT_TRUE(submit_and_get({}).from_cache);

  // A t-override is a distinct plan: its first query must compute.
  SubmitOptions warm_t;
  warm_t.plan.t = 3.0;
  EXPECT_FALSE(submit_and_get(warm_t).from_cache);
  EXPECT_TRUE(submit_and_get(warm_t).from_cache);

  // Another backend is a distinct plan as well.
  SubmitOptions relax;
  relax.plan.backend = "hk-relax";
  EXPECT_FALSE(submit_and_get(relax).from_cache);
  EXPECT_TRUE(submit_and_get(relax).from_cache);

  // The *same resolved plan* spelled explicitly shares the default's
  // entry: plan identity, not request spelling, keys the cache.
  SubmitOptions explicit_default;
  explicit_default.plan.backend = "tea+";
  EXPECT_TRUE(submit_and_get(explicit_default).from_cache);

  // Exactly one computation per distinct plan.
  EXPECT_EQ(service.Stats().computed, 3u);

  // An unknown backend or out-of-range override never reaches the queue
  // or the cache — counted as invalid_plans, not as admission rejects.
  SubmitOptions bogus;
  bogus.plan.backend = "no-such-backend";
  EXPECT_EQ(service.Submit(seed, bogus).result.get().status,
            QueryStatus::kInvalidArgument);
  SubmitOptions negative_t;
  negative_t.plan.t = -1.0;
  EXPECT_EQ(service.Submit(seed, negative_t).result.get().status,
            QueryStatus::kInvalidArgument);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.computed, 3u);
  EXPECT_EQ(stats.invalid_plans, 2u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(RoutedServiceTest, PlanEstimatorsAreBoundedPerExecutor) {
  // A client spraying distinct parameter overrides must not grow worker
  // memory without bound: each executor retains at most
  // kMaxPlanEstimators plans (LRU-evicting non-default ones), and an
  // evicted plan rebuilds bit-identically.
  const Graph g = testing::MakeComplete(16);
  const ApproxParams params = TestParams(1e-2);
  QueryExecutor executor(g, params, 3, BackendSpec{});

  QueryPlan plan = executor.default_plan();
  const SparseVector first = executor.Answer(1, 7, plan);
  for (int i = 1; i <= 40; ++i) {
    QueryPlan variant = plan;
    variant.params.t = 5.0 + 0.001 * i;  // 40 distinct plans
    executor.Answer(1, static_cast<uint64_t>(i), variant);
    EXPECT_LE(executor.num_plan_estimators(),
              QueryExecutor::kMaxPlanEstimators);
  }
  // The default plan is pinned (never evicted) and still answers
  // bit-identically after the churn.
  ExpectSameVector(executor.Answer(1, 7, plan), first);
}

TEST(RoutedServiceTest, BackendSwitchUnderLoadNoDrainNoStalePlans) {
  const Graph g = testing::MakeComplete(24);
  ApproxParams params = TestParams(1e-2);

  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;  // every query computes on its plan
  options.max_queue_depth = 1u << 16;
  AsyncQueryService service(g, params, 11, options);

  const std::vector<std::string> cycle = {"hk-relax", "monte-carlo", "tea+"};
  std::set<uint32_t> allowed;
  allowed.insert(StableBackendId("tea+"));
  for (const std::string& name : cycle) {
    allowed.insert(StableBackendId(name));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> load_ok{0};
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const NodeId seed = static_cast<NodeId>((c * 7 + i++) % g.NumNodes());
        const QueryResult result = service.Submit(seed).result.get();
        ASSERT_EQ(result.status, QueryStatus::kOk);
        // Every result ran some default that was live during the run —
        // never a half-switched or unknown plan.
        ASSERT_TRUE(allowed.count(result.backend_id))
            << result.backend;
        load_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Flip the default backend repeatedly while the load runs. Every switch
  // is a pure config update; a query submitted after the switch returns
  // must already resolve to the new default.
  for (int round = 0; round < 4; ++round) {
    for (const std::string& name : cycle) {
      ASSERT_TRUE(service.SetDefaultBackend(name));
      EXPECT_EQ(service.default_backend(), name);
      const QueryResult result = service.Submit(0).result.get();
      ASSERT_EQ(result.status, QueryStatus::kOk);
      EXPECT_EQ(result.backend, name) << "stale plan after switch";
    }
  }
  stop = true;
  for (std::thread& t : clients) t.join();

  // No drain happened: the service never stopped, nothing was rejected,
  // and every submission completed.
  EXPECT_FALSE(service.stopped());
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GE(load_ok.load(), 1u);
  // Workers were never rebuilt: the switch only ever *adds* lazily built
  // plan estimators (at most one per backend per worker).
  EXPECT_EQ(service.num_workers(), 2u);

  // Unknown names are rejected without touching the config.
  EXPECT_FALSE(service.SetDefaultBackend("no-such-backend"));
  EXPECT_EQ(service.default_backend(), "tea+");
}

TEST(PlanDefaultsTest, PerGraphDefaultsApplyAndSurviveRepublish) {
  GraphStore store;
  store.Publish("a", PowerlawCluster(300, 3, 0.3, 2));
  store.Publish("b", PowerlawCluster(300, 3, 0.3, 3));
  const ApproxParams params = TestParams(1e-3);

  MultiGraphOptions options;
  options.worker_budget = 2;
  options.service.cache_capacity = 0;
  MultiGraphService service(store, params, 5, options);

  // Pin graph "a" to hk-relax; "b" keeps the template default.
  PlanOverrides pin;
  pin.backend = "hk-relax";
  ASSERT_TRUE(service.SetGraphDefaults("a", pin));
  EXPECT_EQ(service.GraphDefaults("a").backend, "hk-relax");

  QueryResult on_a = service.Submit("a", 1).result.get();
  QueryResult on_b = service.Submit("b", 1).result.get();
  ASSERT_EQ(on_a.status, QueryStatus::kOk);
  ASSERT_EQ(on_b.status, QueryStatus::kOk);
  EXPECT_EQ(on_a.backend, "hk-relax");
  EXPECT_EQ(on_b.backend, "tea+");

  // Per-graph parameter overrides change what the plan computes: graph
  // "b" at t = 2.5 matches a dedicated executor on those params at the
  // same (engine seed, query index) — index 1, since "b" served one query.
  PlanOverrides retune;
  retune.t = 2.5;
  ASSERT_TRUE(service.SetGraphDefaults("b", retune));
  QueryResult retuned = service.Submit("b", 9).result.get();
  ASSERT_EQ(retuned.status, QueryStatus::kOk);
  BackendSpec spec;  // tea+
  QueryExecutor reference(*store.Get("b").graph,
                          ApplyParamOverrides(params, retune), 5, spec);
  ExpectSameVector(*retuned.estimate, reference.Answer(9, 1));

  // Defaults survive a republish (the rebuilt service re-applies them).
  service.Publish("a", PowerlawCluster(310, 3, 0.3, 21));
  on_a = service.Submit("a", 2).result.get();
  ASSERT_EQ(on_a.status, QueryStatus::kOk);
  EXPECT_EQ(on_a.backend, "hk-relax");

  // A service-wide switch overrides per-graph backend pins (parameter
  // overrides keep applying) — live, no rebuild.
  ASSERT_TRUE(service.SetDefaultBackend("monte-carlo"));
  EXPECT_EQ(service.default_backend(), "monte-carlo");
  on_a = service.Submit("a", 3).result.get();
  on_b = service.Submit("b", 3).result.get();
  EXPECT_EQ(on_a.backend, "monte-carlo");
  EXPECT_EQ(on_b.backend, "monte-carlo");
  EXPECT_TRUE(service.GraphDefaults("a").backend.empty());

  // Unknown graphs and unknown backends are rejected.
  EXPECT_FALSE(service.SetGraphDefaults("nosuch", pin));
  PlanOverrides bogus;
  bogus.backend = "no-such-backend";
  EXPECT_FALSE(service.SetGraphDefaults("a", bogus));
  EXPECT_FALSE(service.SetDefaultBackend("no-such-backend"));

  // Dropping a graph clears its overrides: a same-named successor starts
  // from the template.
  PlanOverrides repin;
  repin.backend = "hk-relax";
  ASSERT_TRUE(service.SetGraphDefaults("a", repin));
  ASSERT_TRUE(service.Drop("a"));
  EXPECT_TRUE(service.GraphDefaults("a").backend.empty());
  service.Publish("a", PowerlawCluster(300, 3, 0.3, 4));
  on_a = service.Submit("a", 4).result.get();
  ASSERT_EQ(on_a.status, QueryStatus::kOk);
  EXPECT_EQ(on_a.backend, "monte-carlo");  // the template, not the pin
}

}  // namespace
}  // namespace hkpr
