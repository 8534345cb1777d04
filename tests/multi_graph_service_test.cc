// Tests for the sharded multi-graph frontend: per-graph sharding and lazy
// construction, the worker budget, the cross-backend determinism matrix
// (MultiGraphService == a sequential QueryExecutor bit-for-bit for every
// registered backend), versioned hot-swap under concurrent queries, cache
// invalidation across Publish(), graceful drain on Drop(), and cumulative
// per-graph stats across swaps.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "hkpr/backend.h"
#include "hkpr/queries.h"
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

TEST(MultiGraphServiceTest, ShardsQueriesByGraphName) {
  GraphStore store;
  const uint64_t v_path = store.Publish("path", testing::MakePath(50));
  const uint64_t v_full = store.Publish("complete", testing::MakeComplete(16));

  MultiGraphService service(store, TestParams(1e-3), 11, {});
  const QueryResult on_path = service.Submit("path", 0).result.get();
  const QueryResult on_full = service.Submit("complete", 0).result.get();
  ASSERT_EQ(on_path.status, QueryStatus::kOk);
  ASSERT_EQ(on_full.status, QueryStatus::kOk);

  // Each query answered on its own graph (and stamped with its version):
  // on the path the mass stays near the seed end, on K_16 it spreads to
  // all 16 nodes.
  EXPECT_EQ(on_path.graph_version, v_path);
  EXPECT_EQ(on_full.graph_version, v_full);
  EXPECT_EQ(on_full.estimate->nnz(), 16u);
  EXPECT_LT(on_path.estimate->nnz(), 50u);

  // Per-graph stats: one submission each.
  EXPECT_EQ(service.StatsFor("path").submitted, 1u);
  EXPECT_EQ(service.StatsFor("complete").submitted, 1u);
  EXPECT_EQ(service.AggregateStats().submitted, 2u);
}

TEST(MultiGraphServiceTest, UnknownGraphCompletesImmediatelyWithError) {
  GraphStore store;
  store.Publish("g", testing::MakeComplete(8));
  MultiGraphService service(store, TestParams(1e-2), 3, {});

  QueryResult result = service.Submit("nope", 0).result.get();
  EXPECT_EQ(result.status, QueryStatus::kUnknownGraph);
  EXPECT_EQ(result.estimate, nullptr);
  EXPECT_EQ(service.unknown_graph_rejects(), 1u);

  result = service.SubmitTopK("also-nope", 0, 5).result.get();
  EXPECT_EQ(result.status, QueryStatus::kUnknownGraph);
  EXPECT_EQ(service.unknown_graph_rejects(), 2u);

  // The real graph still serves.
  EXPECT_EQ(service.Submit("g", 1).result.get().status, QueryStatus::kOk);
}

TEST(MultiGraphServiceTest, MalformedRequestsReportInvalidArgument) {
  // Under hot-swap a seed can be stale relative to the snapshot a query
  // resolves, so the multi-graph path reports malformed requests (stale
  // seed, k == 0) as a status instead of check-failing the process.
  GraphStore store;
  store.Publish("g", testing::MakeComplete(8));
  MultiGraphService service(store, TestParams(1e-2), 3, {});

  QueryResult result = service.Submit("g", 8).result.get();
  EXPECT_EQ(result.status, QueryStatus::kInvalidArgument);
  EXPECT_EQ(result.estimate, nullptr);
  EXPECT_EQ(service.SubmitTopK("g", 99, 3).result.get().status,
            QueryStatus::kInvalidArgument);
  EXPECT_EQ(service.SubmitTopK("g", 1, 0).result.get().status,
            QueryStatus::kInvalidArgument);
  // Counted service-wide (these never reach a per-graph service).
  EXPECT_EQ(service.invalid_argument_rejects(), 3u);

  // In-range seeds on the same graph still serve.
  EXPECT_EQ(service.Submit("g", 7).result.get().status, QueryStatus::kOk);

  // The canonical race: a seed valid on the old snapshot, stale after a
  // shrinking republish.
  service.Publish("g", testing::MakeComplete(4));
  EXPECT_EQ(service.Submit("g", 7).result.get().status,
            QueryStatus::kInvalidArgument);
  EXPECT_EQ(service.Submit("g", 3).result.get().status, QueryStatus::kOk);
}

TEST(MultiGraphServiceTest, WorkerBudgetSplitsAcrossGraphs) {
  GraphStore store;
  store.Publish("a", testing::MakeComplete(8));
  store.Publish("b", testing::MakeComplete(8));
  store.Publish("c", testing::MakeComplete(8));

  MultiGraphOptions options;
  options.worker_budget = 6;
  MultiGraphService service(store, TestParams(1e-2), 3, options);

  // 6 workers over 3 graphs -> 2 per per-graph service; the floor is 1.
  EXPECT_EQ(service.ServiceFor("a")->num_workers(), 2u);
  EXPECT_EQ(service.ServiceFor("b")->num_workers(), 2u);

  MultiGraphOptions tight;
  tight.worker_budget = 1;
  MultiGraphService small(store, TestParams(1e-2), 3, tight);
  EXPECT_EQ(small.ServiceFor("c")->num_workers(), 1u);
  EXPECT_EQ(small.resolved_worker_budget(), 1u);
  EXPECT_EQ(service.resolved_worker_budget(), 6u);

  EXPECT_EQ(service.ServiceFor("missing"), nullptr);
}

TEST(MultiGraphServiceTest, CrossBackendDeterminismMatrix) {
  // The determinism matrix: for EVERY backend registered in the
  // EstimatorRegistry, the sharded multi-graph path must return
  // bit-identical estimates to one QueryExecutor answering the same seeds
  // in order on the same snapshot — extending the async == sequential
  // guarantee to the store-resolved query path. Cache disabled so every
  // query computes at its index.
  GraphStore store;
  store.Publish("g", PowerlawCluster(300, 3, 0.3, 7));
  const GraphSnapshot snapshot = store.Get("g");
  const ApproxParams params = TestParams(1e-3);
  const std::vector<NodeId> seeds = {1, 5, 9, 22, 120, 250};

  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    SCOPED_TRACE("backend " + name);
    BackendSpec spec;
    spec.name = name;

    const auto expected =
        testing::AnswerInOrder(*snapshot.graph, params, 77, seeds, spec);

    MultiGraphOptions options;
    options.worker_budget = 3;
    options.service.cache_capacity = 0;  // determinism: every query computes
    options.service.backend = spec;
    MultiGraphService service(store, params, 77, options);

    std::vector<QueryHandle> handles;
    for (NodeId seed : seeds) handles.push_back(service.Submit("g", seed));
    for (size_t i = 0; i < handles.size(); ++i) {
      const QueryResult result = handles[i].result.get();
      ASSERT_EQ(result.status, QueryStatus::kOk) << "query " << i;
      SCOPED_TRACE("query " + std::to_string(i));
      ExpectSameVector(*result.estimate, expected[i]);
      EXPECT_EQ(result.graph_version, snapshot.version);
    }
  }
}

TEST(MultiGraphServiceTest, PublishHotSwapsServedGraph) {
  GraphStore store;
  MultiGraphService service(store, TestParams(1e-3), 5, {});

  const uint64_t v1 = service.Publish("g", testing::MakeCycle(30));
  const QueryResult before = service.Submit("g", 0).result.get();
  ASSERT_EQ(before.status, QueryStatus::kOk);
  EXPECT_EQ(before.graph_version, v1);
  EXPECT_LE(before.estimate->nnz(), 30u);

  const uint64_t v2 = service.Publish("g", testing::MakeComplete(12));
  EXPECT_GT(v2, v1);
  const QueryResult after = service.Submit("g", 0).result.get();
  ASSERT_EQ(after.status, QueryStatus::kOk);
  EXPECT_EQ(after.graph_version, v2);
  EXPECT_EQ(after.estimate->nnz(), 12u);  // K_12: mass on every node
}

TEST(MultiGraphServiceTest, CacheInvalidationAcrossPublish) {
  // Publish() must make pre-swap cache entries unreachable even when the
  // new snapshot is bit-identical to the old one — the version, not the
  // content, drives invalidation.
  const Graph original = PowerlawCluster(200, 3, 0.3, 5);
  GraphStore store;
  MultiGraphService service(store, TestParams(1e-3), 9, {});
  const uint64_t v1 = service.Publish("g", original);

  const QueryResult miss = service.Submit("g", 7).result.get();
  ASSERT_EQ(miss.status, QueryStatus::kOk);
  EXPECT_FALSE(miss.from_cache);
  EXPECT_EQ(miss.graph_version, v1);

  const QueryResult hit = service.Submit("g", 7).result.get();
  ASSERT_EQ(hit.status, QueryStatus::kOk);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.estimate.get(), miss.estimate.get());  // the cached object

  const uint64_t v2 = service.Publish("g", original);  // identical content
  const QueryResult post_swap = service.Submit("g", 7).result.get();
  ASSERT_EQ(post_swap.status, QueryStatus::kOk);
  // The post-swap query is a cache miss: the pre-swap entry is never
  // returned for the new version.
  EXPECT_FALSE(post_swap.from_cache);
  EXPECT_EQ(post_swap.graph_version, v2);
  EXPECT_NE(post_swap.estimate.get(), miss.estimate.get());

  const QueryResult rewarmed = service.Submit("g", 7).result.get();
  EXPECT_TRUE(rewarmed.from_cache);
  EXPECT_EQ(rewarmed.graph_version, v2);
  EXPECT_EQ(rewarmed.estimate.get(), post_swap.estimate.get());

  // Stats are cumulative across the swap: 4 submissions, 2 misses, 2 hits
  // (the swapped-out service's counters were folded on retirement), and
  // the latency percentiles cover the merged history — including the two
  // pre-swap queries whose histogram lives in the retired buckets.
  const ServiceStatsSnapshot stats = service.StatsFor("g");
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 2u);
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.latency_count, 4u);
  EXPECT_GT(stats.latency_p99_ms, 0.0);

  const ServiceStatsSnapshot aggregate = service.AggregateStats();
  EXPECT_EQ(aggregate.latency_count, 4u);
  EXPECT_GT(aggregate.latency_p50_ms, 0.0);  // merged, not left at zero
}

// The hot-swap stress test (run under TSan in CI): reader threads submit
// queries against "g" while a writer republishes it in a loop. Every
// result must be kOk (a swap never bounces an accepted query), carry a
// graph version that was live at submission time, and be computed on the
// graph matching that version (node count encodes the publish index).
TEST(MultiGraphServiceStressTest, QueriesDuringHotSwapSeeLiveVersions) {
  constexpr uint32_t kBaseNodes = 120;
  constexpr uint32_t kPublishes = 8;
  constexpr uint32_t kReaders = 3;

  GraphStore store;
  MultiGraphOptions options;
  options.worker_budget = 4;
  MultiGraphService service(store, TestParams(1e-2), 13, options);
  const uint64_t v_first =
      service.Publish("g", PowerlawCluster(kBaseNodes, 3, 0.3, 0));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> completed{0};

  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t local = 0;
      uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire) || local < 20) {
        // Seeds below kBaseNodes are valid on every published snapshot.
        const NodeId seed = static_cast<NodeId>((r * 37 + local) % kBaseNodes);
        const QueryResult result = service.Submit("g", seed).result.get();
        ASSERT_EQ(result.status, QueryStatus::kOk);
        // The version was live at submission: the single writer published
        // versions v_first..v_first+kPublishes in order, so any value in
        // that range that is >= the last one this reader saw is valid.
        ASSERT_GE(result.graph_version, v_first);
        ASSERT_LE(result.graph_version, v_first + kPublishes);
        ASSERT_GE(result.graph_version, last_version);
        last_version = result.graph_version;
        ASSERT_NE(result.estimate, nullptr);
        ASSERT_GT(result.estimate->nnz(), 0u);
        ++local;
      }
      completed.fetch_add(local, std::memory_order_relaxed);
    });
  }

  for (uint32_t k = 1; k <= kPublishes; ++k) {
    const uint64_t v =
        service.Publish("g", PowerlawCluster(kBaseNodes + k, 3, 0.3, k));
    ASSERT_EQ(v, v_first + k);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GE(completed.load(), kReaders * 20u);
  // After the dust settles, queries land on the final version.
  const QueryResult final_result = service.Submit("g", 0).result.get();
  ASSERT_EQ(final_result.status, QueryStatus::kOk);
  EXPECT_EQ(final_result.graph_version, v_first + kPublishes);
}

TEST(MultiGraphServiceTest, DropDrainsInFlightAndRejectsAfter) {
  GraphStore store;
  store.Publish("g", PowerlawCluster(400, 3, 0.3, 4));
  MultiGraphOptions options;
  options.worker_budget = 2;
  MultiGraphService service(store, TestParams(1e-4), 21, options);

  std::vector<QueryHandle> handles;
  for (NodeId seed = 0; seed < 20; ++seed) {
    handles.push_back(service.Submit("g", seed));
  }
  // Drop with most queries still queued: the drain is synchronous, so by
  // the time Drop returns every future must resolve kOk.
  ASSERT_TRUE(service.Drop("g"));
  for (QueryHandle& handle : handles) {
    EXPECT_EQ(handle.result.get().status, QueryStatus::kOk);
  }

  EXPECT_FALSE(store.Contains("g"));
  EXPECT_EQ(service.Submit("g", 0).result.get().status,
            QueryStatus::kUnknownGraph);
  EXPECT_FALSE(service.Drop("g"));  // second drop: unknown

  // The dropped graph's counters survive in the retired stats.
  const ServiceStatsSnapshot stats = service.StatsFor("g");
  EXPECT_EQ(stats.submitted, 20u);
  EXPECT_EQ(stats.completed, 20u);
}

TEST(MultiGraphServiceTest, SelfHealsWhenStoreChangesDirectly) {
  // The store is the source of truth: snapshots published or removed
  // directly on it (not through the service) take effect on the next
  // submission.
  GraphStore store;
  const uint64_t v1 = store.Publish("g", testing::MakeCycle(40));
  MultiGraphService service(store, TestParams(1e-3), 17, {});
  EXPECT_EQ(service.Submit("g", 0).result.get().graph_version, v1);

  const uint64_t v2 = store.Publish("g", testing::MakeComplete(10));
  const QueryResult swapped = service.Submit("g", 0).result.get();
  ASSERT_EQ(swapped.status, QueryStatus::kOk);
  EXPECT_EQ(swapped.graph_version, v2);
  EXPECT_EQ(swapped.estimate->nnz(), 10u);

  store.Remove("g");
  EXPECT_EQ(service.Submit("g", 0).result.get().status,
            QueryStatus::kUnknownGraph);
}

TEST(MultiGraphServiceTest, ExternallyShutDownServiceIsRebuiltNotSpun) {
  // ServiceFor() exposes the per-graph service and Shutdown() is public:
  // a service stopped by hand while still installed must be retired and
  // rebuilt on the next submission, not retried into forever.
  GraphStore store;
  store.Publish("g", testing::MakeComplete(8));
  MultiGraphService service(store, TestParams(1e-2), 3, {});

  std::shared_ptr<AsyncQueryService> direct = service.ServiceFor("g");
  ASSERT_NE(direct, nullptr);
  const QueryResult before = service.Submit("g", 1).result.get();
  ASSERT_EQ(before.status, QueryStatus::kOk);
  direct->Shutdown();
  EXPECT_TRUE(direct->stopped());

  // Must neither hang nor reject: the stopped instance is replaced.
  const QueryResult after = service.Submit("g", 2).result.get();
  EXPECT_EQ(after.status, QueryStatus::kOk);
  EXPECT_NE(service.ServiceFor("g").get(), direct.get());
  // Cumulative stats still cover the stopped instance's query.
  EXPECT_EQ(service.StatsFor("g").completed, 2u);
}

TEST(MultiGraphServiceTest, DestructorDrainsEveryGraph) {
  GraphStore store;
  store.Publish("a", PowerlawCluster(300, 3, 0.3, 2));
  store.Publish("b", PowerlawCluster(300, 3, 0.3, 3));
  std::vector<QueryHandle> handles;
  {
    MultiGraphOptions options;
    options.worker_budget = 2;
    MultiGraphService service(store, TestParams(1e-4), 31, options);
    for (NodeId seed = 0; seed < 10; ++seed) {
      handles.push_back(service.Submit(seed % 2 == 0 ? "a" : "b", seed));
    }
    // Destructor runs here with queries still queued on both graphs.
  }
  for (QueryHandle& handle : handles) {
    EXPECT_EQ(handle.result.get().status, QueryStatus::kOk);
  }
}

// ---------------------------------------------------------------------------
// A republish swaps the graph's snapshot inside its live service.

TEST(MultiGraphSwapTest, RepublishKeepsTheServiceAndSwapsItsSnapshot) {
  GraphStore store;
  MultiGraphOptions options;
  options.worker_budget = 2;
  MultiGraphService service(store, TestParams(1e-3), 5, options);
  const uint64_t v1 = service.Publish("g", testing::MakeCycle(30));
  const std::shared_ptr<AsyncQueryService> before = service.ServiceFor("g");
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(service.Submit("g", 3).result.get().graph_version, v1);

  // No thread is started, joined or drained: the same object, never
  // stopped, with the same workers, now on the new snapshot.
  const uint64_t v2 = service.Publish("g", testing::MakeComplete(12));
  EXPECT_EQ(service.ServiceFor("g").get(), before.get());
  EXPECT_FALSE(before->stopped());
  EXPECT_EQ(before->num_workers(), 2u);
  EXPECT_EQ(before->graph_version(), v2);
  EXPECT_EQ(before->snapshot().graph->NumNodes(), 12u);
  const QueryResult after = service.Submit("g", 3).result.get();
  ASSERT_EQ(after.status, QueryStatus::kOk);
  EXPECT_EQ(after.graph_version, v2);
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.estimate->nnz(), 12u);  // K_12: mass on every node
  // Query indices continue: the second query ran as index 1.
  EXPECT_EQ(before->queries_accepted(), 2u);
}

TEST(MultiGraphSwapTest, ReplacedSnapshotIsFreedOnceItsQueriesFinish) {
  // One of three workers holds a query on the first snapshot while the
  // graph is republished. The query keeps that snapshot alive; once it
  // completes nothing does — not the service, and not the idle workers,
  // whose executors were built on it and never rebound.
  testing::RegisterLatchedBackend();
  testing::SeedLatch& latch = testing::TheSeedLatch();
  latch.Hold();
  GraphStore store;
  MultiGraphOptions options;
  options.worker_budget = 3;
  options.service.backend.name = "seed-latch";
  MultiGraphService service(store, TestParams(1e-2), 3, options);
  const uint64_t v1 = service.Publish("g", testing::MakeComplete(16));
  std::weak_ptr<const Graph> first = store.Get("g").graph;

  QueryHandle held = service.Submit("g", testing::kLatchedSeed);
  const bool entered = latch.AwaitEntered();
  if (!entered) latch.Release();
  ASSERT_TRUE(entered) << "no worker picked up the latched query";
  const QueryResult on_first = service.Submit("g", 5).result.get();
  ASSERT_EQ(on_first.status, QueryStatus::kOk);
  EXPECT_EQ(on_first.graph_version, v1);

  const uint64_t v2 = service.Publish("g", testing::MakeComplete(16));
  EXPECT_FALSE(first.expired()) << "the held query's snapshot was freed";
  const QueryResult on_second = service.Submit("g", 5).result.get();
  ASSERT_EQ(on_second.status, QueryStatus::kOk);
  EXPECT_EQ(on_second.graph_version, v2);
  EXPECT_FALSE(on_second.from_cache);
  EXPECT_FALSE(first.expired());

  latch.Release();
  const QueryResult released = held.result.get();
  ASSERT_EQ(released.status, QueryStatus::kOk);
  EXPECT_EQ(released.graph_version, v1);
  EXPECT_TRUE(first.expired()) << "something still pins the old snapshot";
}

TEST(MultiGraphSwapTest, WalksAfterRepublishMatchAnExecutorAtContinuingIndices) {
  // A walking backend, cache off: the queries before the republish match
  // one executor on the first graph at indices 0..3, and those after it
  // one executor on the second graph at indices 4..9 — the service's
  // query indices continue across the swap.
  const Graph first = PowerlawCluster(400, 3, 0.3, 7);
  const Graph second = PowerlawCluster(420, 3, 0.3, 8);
  const ApproxParams params = TestParams(5e-3);
  BackendSpec spec;
  spec.context.tea_plus.c = 1.0;  // TEA+ walks at these parameters
  const std::vector<NodeId> before_seeds = {1, 5, 9, 22};
  const std::vector<NodeId> after_seeds = {1, 5, 9, 22, 60, 410};
  const auto expected_before =
      testing::AnswerInOrder(first, params, 77, before_seeds, spec);
  const auto expected_after = testing::AnswerInOrder(
      second, params, 77, after_seeds, spec, before_seeds.size());
  EXPECT_TRUE(testing::EveryQueryWalks(testing::ReferenceWalks(
      second, params, 77, after_seeds, spec, before_seeds.size())));

  GraphStore store;
  MultiGraphOptions options;
  options.worker_budget = 3;
  options.service.cache_capacity = 0;
  options.service.backend = spec;
  MultiGraphService service(store, params, 77, options);
  const uint64_t v1 = service.Publish("g", first);
  std::vector<QueryHandle> handles;
  for (NodeId seed : before_seeds) handles.push_back(service.Submit("g", seed));
  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE("before, query " + std::to_string(i));
    const QueryResult result = handles[i].result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);
    EXPECT_EQ(result.graph_version, v1);
    ExpectSameVector(*result.estimate, expected_before[i]);
  }

  const uint64_t v2 = service.Publish("g", second);
  handles.clear();
  for (NodeId seed : after_seeds) handles.push_back(service.Submit("g", seed));
  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE("after, query " + std::to_string(i));
    const QueryResult result = handles[i].result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);
    EXPECT_EQ(result.graph_version, v2);
    ExpectSameVector(*result.estimate, expected_after[i]);
  }
}

TEST(MultiGraphSwapTest, QueryRacingDropIsOkOrUnknownGraph) {
  // Clients query "g" while it is dropped and published again. A query
  // admitted before the drop completes kOk; one after it reports
  // kUnknownGraph. None is rejected, and none hangs.
  constexpr int kRounds = 6;
  constexpr uint32_t kClients = 3;
  GraphStore store;
  MultiGraphOptions options;
  options.worker_budget = 2;
  MultiGraphService service(store, TestParams(1e-2), 19, options);
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> unknown{0};
  for (int round = 0; round < kRounds; ++round) {
    service.Publish("g", PowerlawCluster(150, 3, 0.3, round));
    std::atomic<bool> dropped{false};
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Keep querying until a few queries have seen the drop.
        for (uint32_t i = 0, after_drop = 0; after_drop < 4; ++i) {
          if (dropped.load()) ++after_drop;
          QueryHandle handle =
              service.Submit("g", static_cast<NodeId>((c * 31 + i) % 150));
          ASSERT_EQ(handle.result.wait_for(std::chrono::seconds(30)),
                    std::future_status::ready)
              << "a query racing Drop hung";
          const QueryStatus status = handle.result.get().status;
          ASSERT_TRUE(status == QueryStatus::kOk ||
                      status == QueryStatus::kUnknownGraph)
              << QueryStatusName(status);
          (status == QueryStatus::kOk ? ok : unknown).fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(service.Drop("g"));
    dropped.store(true);
    for (std::thread& t : clients) t.join();
  }
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GE(unknown.load(), kRounds * kClients * 3u);
}

TEST(MultiGraphSwapTest, QueuedOldQueryNeverAnswersTheNewSnapshot) {
  // One worker, held on a latched query. Behind it queue a query admitted
  // on the first snapshot and then, after an invalidate and a republish,
  // the same query on the second. The first computes and caches its
  // answer after the swap; the second must not be answered from it.
  testing::RegisterLatchedBackend();
  testing::SeedLatch& latch = testing::TheSeedLatch();
  latch.Hold();
  const Graph first = PowerlawCluster(100, 3, 0.3, 1);
  const Graph second = PowerlawCluster(100, 3, 0.3, 2);
  const ApproxParams params = TestParams(1e-2);
  BackendSpec relax;
  relax.name = "hk-relax";
  const SparseVector on_first =
      testing::AnswerInOrder(first, params, 1, {5}, relax)[0];
  const SparseVector on_second =
      testing::AnswerInOrder(second, params, 1, {5}, relax)[0];

  GraphStore store;
  MultiGraphOptions options;
  options.worker_budget = 1;
  options.service.backend.name = "seed-latch";
  MultiGraphService service(store, params, 1, options);
  const uint64_t v1 = service.Publish("g", first);
  QueryHandle held = service.Submit("g", testing::kLatchedSeed);
  const bool entered = latch.AwaitEntered();
  if (!entered) latch.Release();
  ASSERT_TRUE(entered) << "no worker picked up the latched query";
  SubmitOptions submit;
  submit.plan.backend = "hk-relax";
  QueryHandle old_query = service.Submit("g", 5, submit);
  service.InvalidateCaches();
  const uint64_t v2 = service.Publish("g", second);
  QueryHandle new_query = service.Submit("g", 5, submit);
  latch.Release();

  EXPECT_EQ(held.result.get().status, QueryStatus::kOk);
  const QueryResult old_result = old_query.result.get();
  ASSERT_EQ(old_result.status, QueryStatus::kOk);
  EXPECT_EQ(old_result.graph_version, v1);
  ExpectSameVector(*old_result.estimate, on_first);
  const QueryResult new_result = new_query.result.get();
  ASSERT_EQ(new_result.status, QueryStatus::kOk);
  EXPECT_EQ(new_result.graph_version, v2);
  EXPECT_FALSE(new_result.from_cache);
  ExpectSameVector(*new_result.estimate, on_second);
}

TEST(MultiGraphSwapTest, RepublishWhileTheQueueIsFull) {
  // Overload and a hot swap at once: the one worker is held on a latched
  // query, its queue is full, and the graph is republished. Every admitted
  // query finishes on the snapshot it was admitted on, every other one was
  // refused at admission, and the counters account for each exactly once.
  testing::RegisterLatchedBackend();
  testing::SeedLatch& latch = testing::TheSeedLatch();
  latch.Hold();
  GraphStore store;
  MultiGraphOptions options;
  options.worker_budget = 1;
  options.service.max_queue_depth = 4;
  options.service.backend.name = "seed-latch";
  MultiGraphService service(store, TestParams(1e-2), 3, options);
  const uint64_t v1 = service.Publish("g", testing::MakeComplete(16));
  QueryHandle held = service.Submit("g", testing::kLatchedSeed);
  const bool entered = latch.AwaitEntered();
  if (!entered) latch.Release();
  ASSERT_TRUE(entered) << "no worker picked up the latched query";

  // Seeds 1..4 fill the queue; 5 and 6 are refused.
  std::vector<QueryHandle> before;
  for (NodeId seed = 1; seed <= 6; ++seed) {
    before.push_back(service.Submit("g", seed));
  }
  EXPECT_EQ(service.StatsFor("g").queue_depth, 4u);
  const uint64_t v2 = service.Publish("g", testing::MakeComplete(16));
  ASSERT_GT(v2, v1);
  // The queue is still full: queries on the new snapshot are refused too.
  std::vector<QueryHandle> after;
  for (NodeId seed = 7; seed <= 8; ++seed) {
    after.push_back(service.Submit("g", seed));
  }
  latch.Release();

  const QueryResult released = held.result.get();
  ASSERT_EQ(released.status, QueryStatus::kOk);
  EXPECT_EQ(released.graph_version, v1);
  for (size_t i = 0; i < before.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(i + 1));
    const QueryResult result = before[i].result.get();
    if (i < 4) {
      ASSERT_EQ(result.status, QueryStatus::kOk);
      EXPECT_EQ(result.graph_version, v1);
      EXPECT_DOUBLE_EQ(result.estimate->Get(static_cast<NodeId>(i + 1)), 1.0);
    } else {
      EXPECT_EQ(result.status, QueryStatus::kRejected);
    }
  }
  for (QueryHandle& handle : after) {
    EXPECT_EQ(handle.result.get().status, QueryStatus::kRejected);
  }
  const QueryResult next = service.Submit("g", 9).result.get();
  ASSERT_EQ(next.status, QueryStatus::kOk);
  EXPECT_EQ(next.graph_version, v2);

  const ServiceStatsSnapshot stats = service.StatsFor("g");
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected);
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(MultiGraphSwapTest, PublishAndInvalidateNeverCrossSnapshots) {
  // Clients repeat a few seeds (so most answers are cache hits) while the
  // graph is republished and every cache invalidated in turn. Publish k
  // serves a distinct graph, so each answer must equal the deterministic
  // estimate on the snapshot its version names: no cached entry of one
  // snapshot may answer a query on another.
  constexpr uint32_t kPublishes = 6;
  constexpr uint32_t kClients = 3;
  const ApproxParams params = TestParams(1e-2);
  const std::vector<NodeId> seeds = {0, 1, 2, 3};
  std::vector<Graph> graphs;
  std::vector<std::vector<SparseVector>> expected;
  BackendSpec spec;
  spec.name = "hk-relax";
  for (uint32_t k = 0; k <= kPublishes; ++k) {
    graphs.push_back(PowerlawCluster(100, 3, 0.3, k));
    expected.push_back(
        testing::AnswerInOrder(graphs.back(), params, 1, seeds, spec));
  }

  GraphStore store;
  MultiGraphOptions options;
  options.worker_budget = 2;
  options.service.backend = spec;
  MultiGraphService service(store, params, 1, options);
  const uint64_t v_first = service.Publish("g", graphs[0]);
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (uint32_t i = 0; !done.load() || i < 40; ++i) {
        const size_t s = (c + i) % seeds.size();
        const QueryResult result = service.Submit("g", seeds[s]).result.get();
        ASSERT_EQ(result.status, QueryStatus::kOk);
        ASSERT_GE(result.graph_version, v_first);
        ASSERT_LE(result.graph_version, v_first + kPublishes);
        SCOPED_TRACE("version " + std::to_string(result.graph_version) +
                     (result.from_cache ? ", cached" : ", computed"));
        ExpectSameVector(*result.estimate,
                         expected[result.graph_version - v_first][s]);
      }
    });
  }
  for (uint32_t k = 1; k <= kPublishes; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(service.Publish("g", graphs[k]), v_first + k);
    service.InvalidateCaches();
  }
  done.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_GT(service.StatsFor("g").cache_hits, 0u);
}

}  // namespace
}  // namespace hkpr
