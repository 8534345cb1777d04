// Tests for the async serving subsystem: AsyncQueryService determinism
// against a sequential QueryExecutor, the result cache (hits never
// recompute, hits answered at submission keep the query indices,
// single-flight dedup, LRU bounds, invalidation), work stealing, admission
// control, deadlines and cancellation, as the service's counters see them.
// The stats block itself is tested in service_stats_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hk_relax.h"
#include "graph/generators.h"
#include "hkpr/backend.h"
#include "hkpr/queries.h"
#include "service/async_query_service.h"
#include "service/result_cache.h"
#include "service/service_stats.h"
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

/// TEA+ with its hop cap at c = 1: at delta = 5e-3 every reference query
/// of the determinism tests below walks (31,370, 14,176 and 17,728 walks
/// per test), so a query answered at the wrong index draws the wrong
/// walks.
BackendSpec WalkingTeaPlus() {
  BackendSpec spec;
  spec.context.tea_plus.c = 1.0;
  return spec;
}

std::vector<QueryResult> SubmitAllAndWait(AsyncQueryService& service,
                                          const std::vector<NodeId>& seeds) {
  std::vector<QueryHandle> handles;
  handles.reserve(seeds.size());
  for (NodeId seed : seeds) handles.push_back(service.Submit(seed));
  std::vector<QueryResult> results;
  results.reserve(handles.size());
  for (QueryHandle& handle : handles) results.push_back(handle.result.get());
  return results;
}

TEST(AsyncQueryServiceTest, BitIdenticalToSequentialExecutor) {
  // The async path must return bit-identical estimates to one QueryExecutor
  // answering the same (seed sequence, params, engine seed) in submission
  // order — the query index assigned at submission drives the RNG in both.
  // Includes a duplicate seed: with the cache disabled it is recomputed at
  // its own index, exactly like the sequential reference.
  Graph g = PowerlawCluster(400, 3, 0.3, 7);
  const ApproxParams params = TestParams(5e-3);
  const BackendSpec spec = WalkingTeaPlus();
  const std::vector<NodeId> seeds = {1, 5, 9, 5, 22, 60, 120, 350};

  const auto expected = testing::AnswerInOrder(g, params, 77, seeds, spec);
  EXPECT_TRUE(testing::EveryQueryWalks(
      testing::ReferenceWalks(g, params, 77, seeds, spec)));

  for (uint32_t workers : {1u, 3u}) {
    ServiceOptions options;
    options.num_workers = workers;
    options.cache_capacity = 0;  // determinism across duplicates
    options.backend = spec;
    AsyncQueryService service(g, params, 77, options);
    const auto results = SubmitAllAndWait(service, seeds);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status, QueryStatus::kOk) << "query " << i;
      ExpectSameVector(*results[i].estimate, expected[i]);
    }
  }
}

TEST(AsyncQueryServiceTest, ColdCachedPassMatchesBatchOnDistinctSeeds) {
  // With the cache enabled, a cold pass over distinct seeds still computes
  // each query at its submission index — same bits as the sequential
  // reference answering the batch in order.
  Graph g = PowerlawCluster(300, 3, 0.3, 8);
  const ApproxParams params = TestParams(5e-3);
  const BackendSpec spec = WalkingTeaPlus();
  const std::vector<NodeId> seeds = {2, 8, 31, 100};

  const auto expected = testing::AnswerInOrder(g, params, 55, seeds, spec);
  EXPECT_TRUE(testing::EveryQueryWalks(
      testing::ReferenceWalks(g, params, 55, seeds, spec)));

  ServiceOptions options;
  options.num_workers = 2;
  options.backend = spec;
  AsyncQueryService service(g, params, 55, options);
  const auto results = SubmitAllAndWait(service, seeds);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].status, QueryStatus::kOk);
    ExpectSameVector(*results[i].estimate, expected[i]);
  }
}

TEST(AsyncQueryServiceTest, TopKMatchesBatchTopK) {
  // A top-k submission ranks the estimate its query index draws: the top-k
  // of the batch answered in order by the sequential reference.
  Graph g = PowerlawCluster(400, 4, 0.3, 10);
  const ApproxParams params = TestParams(5e-3);
  const BackendSpec spec = WalkingTeaPlus();
  const std::vector<NodeId> seeds = {3, 17, 200};

  std::vector<std::vector<ScoredNode>> expected;
  for (const SparseVector& estimate :
       testing::AnswerInOrder(g, params, 33, seeds, spec)) {
    expected.push_back(TopKNormalized(g, estimate, 10));
  }
  EXPECT_TRUE(testing::EveryQueryWalks(
      testing::ReferenceWalks(g, params, 33, seeds, spec)));

  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  options.backend = spec;
  AsyncQueryService service(g, params, 33, options);
  std::vector<QueryHandle> handles;
  for (NodeId seed : seeds) handles.push_back(service.SubmitTopK(seed, 10));
  for (size_t i = 0; i < handles.size(); ++i) {
    const QueryResult result = handles[i].result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);
    ASSERT_EQ(result.top_k.size(), expected[i].size());
    for (size_t j = 0; j < expected[i].size(); ++j) {
      EXPECT_EQ(result.top_k[j].node, expected[i][j].node);
      EXPECT_DOUBLE_EQ(result.top_k[j].score, expected[i][j].score);
    }
  }
}

TEST(AsyncQueryServiceTest, CacheHitsNeverRecompute) {
  Graph g = testing::MakeComplete(16);
  const ApproxParams params = TestParams(1e-3);
  ServiceOptions options;
  options.num_workers = 2;
  AsyncQueryService service(g, params, 13, options);

  const QueryResult first = service.Submit(5).result.get();
  ASSERT_EQ(first.status, QueryStatus::kOk);
  EXPECT_FALSE(first.from_cache);

  for (int i = 0; i < 9; ++i) {
    const QueryResult repeat = service.Submit(5).result.get();
    ASSERT_EQ(repeat.status, QueryStatus::kOk);
    EXPECT_TRUE(repeat.from_cache);
    // Pointer identity: the very same cached object, not a recomputation.
    EXPECT_EQ(repeat.estimate.get(), first.estimate.get());
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 9u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.latency_count, 10u);
}

TEST(AsyncQueryServiceTest, CachedHitsKeepQueryIndices) {
  // A completed key is answered on the submitting thread, but it still
  // claims its query index at admission: every miss after it draws the
  // randomness of its own stream index, bit-identical to the sequential
  // reference. Monte-Carlo is randomized, so a shifted index would change
  // its bits.
  Graph g = PowerlawCluster(400, 3, 0.3, 7);
  const ApproxParams params = TestParams(1e-3);
  const std::vector<NodeId> stream = {1, 5, 1, 9, 5, 22, 1, 60, 9, 120};
  constexpr size_t kExpiredAt = 6;  // a repeat of seed 1, with a 1 ns timeout
  BackendSpec spec;
  spec.name = "monte-carlo";
  const auto expected = testing::AnswerInOrder(g, params, 77, stream, spec);

  ServiceOptions options;
  options.num_workers = 2;
  options.backend = spec;
  AsyncQueryService service(g, params, 77, options);
  std::map<NodeId, CachedEstimate> first;
  uint64_t hits = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE("stream index " + std::to_string(i));
    SubmitOptions submit;
    if (i == kExpiredAt) submit.timeout = std::chrono::nanoseconds(1);
    const QueryResult result = service.Submit(stream[i], submit).result.get();
    if (i == kExpiredAt) {
      EXPECT_EQ(result.status, QueryStatus::kExpired);
      continue;
    }
    ASSERT_EQ(result.status, QueryStatus::kOk);
    const auto it = first.find(stream[i]);
    if (it == first.end()) {
      EXPECT_FALSE(result.from_cache);
      ExpectSameVector(*result.estimate, expected[i]);
      first.emplace(stream[i], result.estimate);
    } else {
      // The first computation's object, not a recomputation.
      EXPECT_TRUE(result.from_cache);
      EXPECT_EQ(result.estimate.get(), it->second.get());
      ++hits;
    }
  }
  ASSERT_EQ(first.size(), 6u);
  ASSERT_EQ(hits, 3u);
  EXPECT_EQ(service.queries_accepted(), stream.size());
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, stream.size());
  EXPECT_EQ(stats.cache_hits, hits);
  EXPECT_EQ(stats.cache_misses, first.size());
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.computed, first.size());
  EXPECT_EQ(stats.completed, hits + first.size());
  EXPECT_EQ(stats.latency_count, hits + first.size());
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(AsyncQueryServiceTest, QueuedBehindBusyWorkerIsStolen) {
  // One worker blocks inside a query; requests that land on its shard can
  // only be answered by the other worker stealing them. Idle workers park
  // without a timeout, so a lost wakeup shows here as a request that never
  // completes.
  testing::RegisterLatchedBackend();
  testing::SeedLatch& latch = testing::TheSeedLatch();
  latch.Hold();

  Graph g = testing::MakeComplete(16);
  ServiceOptions options;
  options.num_workers = 2;
  options.backend.name = "seed-latch";
  AsyncQueryService service(g, TestParams(1e-2), 3, options);
  QueryHandle blocker = service.Submit(testing::kLatchedSeed);
  const bool entered = latch.AwaitEntered();
  if (!entered) latch.Release();
  ASSERT_TRUE(entered) << "no worker picked up the latched query";

  // Submissions alternate between the two shards, so of any two in a row
  // one lands behind the blocked worker.
  bool all_answered = true;
  for (NodeId seed = 1; seed <= 4; ++seed) {
    QueryHandle handle = service.Submit(seed);
    if (handle.result.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      all_answered = false;
      break;
    }
    const QueryResult result = handle.result.get();
    EXPECT_EQ(result.status, QueryStatus::kOk);
    EXPECT_DOUBLE_EQ(result.estimate->Get(seed), 1.0);
  }
  latch.Release();
  EXPECT_TRUE(all_answered)
      << "a request queued behind the busy worker was never stolen";
  EXPECT_EQ(blocker.result.get().status, QueryStatus::kOk);
  EXPECT_GE(service.Stats().stolen, 1u);
}

TEST(AsyncQueryServiceTest, SingleFlightCoalescesConcurrentDuplicates) {
  // A burst of identical queries must cost exactly one computation: the
  // first processed request leads, everyone else hits or waits on it.
  Graph g = PowerlawCluster(500, 4, 0.3, 3);
  const ApproxParams params = TestParams(1e-5);
  ServiceOptions options;
  options.num_workers = 4;
  AsyncQueryService service(g, params, 17, options);

  constexpr int kBurst = 32;
  const auto results =
      SubmitAllAndWait(service, std::vector<NodeId>(kBurst, 9));
  for (const QueryResult& result : results) {
    ASSERT_EQ(result.status, QueryStatus::kOk);
    EXPECT_EQ(result.estimate.get(), results[0].estimate.get());
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, kBurst - 1u);
}

TEST(AsyncQueryServiceTest, AdmissionControlRejectsWhenQueueFull) {
  // max_queue_depth = 0 degenerates admission to "reject everything" —
  // a deterministic stand-in for a saturated queue.
  Graph g = testing::MakeComplete(8);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 0;
  AsyncQueryService service(g, TestParams(1e-2), 5, options);

  for (int i = 0; i < 5; ++i) {
    QueryResult result = service.Submit(1).result.get();
    EXPECT_EQ(result.status, QueryStatus::kRejected);
    EXPECT_EQ(result.estimate, nullptr);
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_EQ(stats.computed, 0u);
}

TEST(AsyncQueryServiceTest, ExpiredDeadlineSkipsComputation) {
  Graph g = PowerlawCluster(2000, 4, 0.3, 6);
  const ApproxParams params = TestParams(1e-6);
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  AsyncQueryService service(g, params, 7, options);

  // Keep the single worker busy so the deadline of the second request has
  // certainly passed by the time it is dequeued.
  QueryHandle blocker = service.Submit(3);
  SubmitOptions expired;
  expired.timeout = std::chrono::nanoseconds(1);
  QueryHandle doomed = service.Submit(4, expired);

  EXPECT_EQ(blocker.result.get().status, QueryStatus::kOk);
  EXPECT_EQ(doomed.result.get().status, QueryStatus::kExpired);
  EXPECT_EQ(service.Stats().expired, 1u);
}

TEST(AsyncQueryServiceTest, CancelWinsWhileQueued) {
  Graph g = PowerlawCluster(2000, 4, 0.3, 9);
  const ApproxParams params = TestParams(1e-6);
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  AsyncQueryService service(g, params, 11, options);

  QueryHandle blocker = service.Submit(3);
  QueryHandle cancelled = service.Submit(4);
  cancelled.Cancel();

  EXPECT_EQ(blocker.result.get().status, QueryStatus::kOk);
  EXPECT_EQ(cancelled.result.get().status, QueryStatus::kCancelled);
  EXPECT_EQ(service.Stats().cancelled, 1u);
}

TEST(AsyncQueryServiceTest, InvalidateCacheForcesRecompute) {
  Graph g = testing::MakeComplete(16);
  ServiceOptions options;
  options.num_workers = 1;
  AsyncQueryService service(g, TestParams(1e-3), 19, options);

  const QueryResult before = service.Submit(2).result.get();
  ASSERT_EQ(before.status, QueryStatus::kOk);
  service.InvalidateCache();
  const QueryResult after = service.Submit(2).result.get();
  ASSERT_EQ(after.status, QueryStatus::kOk);
  EXPECT_FALSE(after.from_cache);

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(AsyncQueryServiceTest, HkRelaxBackendMatchesDirectEstimator) {
  // The estimator choice is a service option, not a hard-wired TEA+ path;
  // HK-Relax is deterministic, so the service must reproduce the direct
  // estimator's bits exactly (eps_a = eps_r * delta by construction).
  Graph g = PowerlawCluster(400, 3, 0.3, 12);
  const ApproxParams params = TestParams(1e-4);
  ServiceOptions options;
  options.num_workers = 2;
  options.backend.name = "hk-relax";
  AsyncQueryService service(g, params, 23, options);
  EXPECT_EQ(service.backend_name(), "HK-Relax");
  EXPECT_EQ(service.backend_id(), StableBackendId("hk-relax"));

  HkRelaxOptions relax;
  relax.t = params.t;
  relax.eps_a = params.eps_r * params.delta;
  HkRelaxEstimator direct(g, relax);
  const SparseVector expected = direct.Estimate(31);

  const QueryResult computed = service.Submit(31).result.get();
  ASSERT_EQ(computed.status, QueryStatus::kOk);
  ExpectSameVector(*computed.estimate, expected);

  const QueryResult cached = service.Submit(31).result.get();
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.estimate.get(), computed.estimate.get());
}

TEST(AsyncQueryServiceTest, EveryBackendBitIdenticalToSequentialExecutor) {
  // Per registry backend, every query the service answers is bit-identical
  // to one QueryExecutor answering the same seeds in submission order, for
  // the same (engine seed, query index), at 1 and at 3 workers. TEA+ runs
  // at c = 1 so that it walks: a randomized backend must walk on some
  // reference query, or its walk streams would go uncompared.
  Graph g = PowerlawCluster(400, 3, 0.3, 7);
  const ApproxParams params = TestParams(1e-3);
  const std::vector<NodeId> seeds = {1, 5, 9, 22, 120, 350};

  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    BackendSpec spec;
    spec.name = name;
    spec.context.tea_plus.c = 1.0;
    const auto expected = testing::AnswerInOrder(g, params, 77, seeds, spec);
    if (EstimatorRegistry::Global().Find(name)->randomized) {
      const std::vector<uint64_t> walks =
          testing::ReferenceWalks(g, params, 77, seeds, spec);
      EXPECT_GT(*std::max_element(walks.begin(), walks.end()), 0u);
    }

    for (uint32_t workers : {1u, 3u}) {
      ServiceOptions options;
      options.num_workers = workers;
      options.cache_capacity = 0;  // determinism: every query computes
      options.backend = spec;
      AsyncQueryService service(g, params, 77, options);
      const auto results = SubmitAllAndWait(service, seeds);
      ASSERT_EQ(results.size(), expected.size());
      for (size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(std::to_string(workers) + " workers, query " +
                     std::to_string(i));
        ASSERT_EQ(results[i].status, QueryStatus::kOk);
        ExpectSameVector(*results[i].estimate, expected[i]);
      }
    }
  }
}

TEST(AsyncQueryServiceTest, SnapshotVersionStampsResultsAndCacheKeys) {
  // A service built on a GraphStore snapshot co-owns the graph and stamps
  // the store version on every result; the legacy borrowed-graph path
  // reports version 0.
  GraphStore store;
  const uint64_t version = store.Publish("g", testing::MakeComplete(16));
  ASSERT_GE(version, 1u);

  ServiceOptions options;
  options.num_workers = 2;
  AsyncQueryService service(store.Get("g"), TestParams(1e-3), 13, options);
  EXPECT_EQ(service.graph_version(), version);
  EXPECT_EQ(service.snapshot().graph->NumNodes(), 16u);

  const QueryResult computed = service.Submit(3).result.get();
  ASSERT_EQ(computed.status, QueryStatus::kOk);
  EXPECT_EQ(computed.graph_version, version);
  const QueryResult cached = service.Submit(3).result.get();
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.graph_version, version);

  // The service survives the store dropping the graph: its snapshot keeps
  // the graph alive for in-flight and future queries.
  store.Remove("g");
  const QueryResult after_remove = service.Submit(5).result.get();
  EXPECT_EQ(after_remove.status, QueryStatus::kOk);

  Graph borrowed = testing::MakeComplete(8);
  AsyncQueryService legacy(borrowed, TestParams(1e-2), 5, options);
  EXPECT_EQ(legacy.graph_version(), 0u);
  EXPECT_EQ(legacy.Submit(1).result.get().graph_version, 0u);
}

TEST(AsyncQueryServiceTest, ShutdownIsIdempotentAndDrains) {
  Graph g = PowerlawCluster(400, 3, 0.3, 6);
  ServiceOptions options;
  options.num_workers = 2;
  AsyncQueryService service(g, TestParams(1e-4), 43, options);
  std::vector<QueryHandle> handles;
  for (NodeId seed = 0; seed < 12; ++seed) {
    handles.push_back(service.Submit(seed));
  }
  service.Shutdown();
  for (QueryHandle& handle : handles) {
    EXPECT_EQ(handle.result.get().status, QueryStatus::kOk);
  }
  // Post-shutdown submissions are rejected, not lost.
  EXPECT_EQ(service.Submit(1).result.get().status, QueryStatus::kRejected);
  service.Shutdown();  // second call: no-op, no double-join
}

TEST(AsyncQueryServiceTest, DestructorDrainsPendingQueries) {
  Graph g = PowerlawCluster(500, 3, 0.3, 4);
  const ApproxParams params = TestParams(1e-5);
  std::vector<QueryHandle> handles;
  {
    ServiceOptions options;
    options.num_workers = 2;
    AsyncQueryService service(g, params, 29, options);
    for (NodeId seed = 0; seed < 20; ++seed) {
      handles.push_back(service.Submit(seed));
    }
    // Destructor runs here with most queries still queued.
  }
  for (QueryHandle& handle : handles) {
    EXPECT_EQ(handle.result.get().status, QueryStatus::kOk);
  }
}

// ---------------------------------------------------------------------------
// ResultCache unit tests.

ResultCacheKey MakeKey(NodeId seed, uint64_t version = 0) {
  ResultCacheKey key;
  key.graph_version = version;
  key.seed = seed;
  key.t = 5.0;
  key.eps_r = 0.5;
  key.delta = 1e-5;
  key.p_f = 1e-6;
  return key;
}

CachedEstimate MakeValue(NodeId seed, double value) {
  SparseVector v;
  v.Add(seed, value);
  return std::make_shared<const SparseVector>(std::move(v));
}

TEST(ResultCacheTest, MissComputeHitRoundTrip) {
  ResultCache cache(64, 4);
  auto miss = cache.LookupOrStartCompute(MakeKey(7));
  ASSERT_EQ(miss.outcome, ResultCache::Outcome::kMiss);
  cache.Complete(MakeKey(7), miss.leader, MakeValue(7, 0.5));

  auto hit = cache.LookupOrStartCompute(MakeKey(7));
  ASSERT_EQ(hit.outcome, ResultCache::Outcome::kHit);
  EXPECT_DOUBLE_EQ(hit.value->Get(7), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, DistinctBackendsNeverShareAnEntry) {
  // Two backends with bit-identical parameters must key separately: the
  // backend_id field carries the registry's stable id, which is unique per
  // registered name (collision-checked at registration).
  ResultCache cache(64, 4);
  ResultCacheKey tea_plus = MakeKey(7);
  tea_plus.backend_id = StableBackendId("tea+");
  ResultCacheKey relax = MakeKey(7);  // every other field identical
  relax.backend_id = StableBackendId("hk-relax");
  ASSERT_NE(tea_plus.backend_id, relax.backend_id);

  auto miss = cache.LookupOrStartCompute(tea_plus);
  ASSERT_EQ(miss.outcome, ResultCache::Outcome::kMiss);
  cache.Complete(tea_plus, miss.leader, MakeValue(7, 0.5));

  // The completed TEA+ entry must not satisfy the HK-Relax lookup.
  EXPECT_EQ(cache.LookupOrStartCompute(relax).outcome,
            ResultCache::Outcome::kMiss);
  EXPECT_EQ(cache.LookupOrStartCompute(tea_plus).outcome,
            ResultCache::Outcome::kHit);
}

TEST(ResultCacheTest, DifferentParamsAreDifferentKeys) {
  ResultCache cache(64, 4);
  auto a = cache.LookupOrStartCompute(MakeKey(7));
  cache.Complete(MakeKey(7), a.leader, MakeValue(7, 0.5));

  ResultCacheKey other = MakeKey(7);
  other.delta = 1e-4;
  EXPECT_EQ(cache.LookupOrStartCompute(other).outcome,
            ResultCache::Outcome::kMiss);
}

TEST(ResultCacheTest, SecondRequesterCoalescesOnInFlightLeader) {
  ResultCache cache(64, 4);
  auto leader = cache.LookupOrStartCompute(MakeKey(3));
  ASSERT_EQ(leader.outcome, ResultCache::Outcome::kMiss);

  auto follower = cache.LookupOrStartCompute(MakeKey(3));
  ASSERT_EQ(follower.outcome, ResultCache::Outcome::kInFlight);

  // Follower blocks until the leader publishes.
  std::thread completer([&] {
    cache.Complete(MakeKey(3), leader.leader, MakeValue(3, 0.25));
  });
  const CachedEstimate value = follower.pending.get();
  completer.join();
  EXPECT_DOUBLE_EQ(value->Get(3), 0.25);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedCompletedEntry) {
  ResultCache cache(2, 1);  // one shard, two entries
  for (NodeId seed : {1u, 2u}) {
    auto miss = cache.LookupOrStartCompute(MakeKey(seed));
    cache.Complete(MakeKey(seed), miss.leader, MakeValue(seed, 1.0));
  }
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_EQ(cache.LookupOrStartCompute(MakeKey(1)).outcome,
            ResultCache::Outcome::kHit);
  auto miss = cache.LookupOrStartCompute(MakeKey(3));
  ASSERT_EQ(miss.outcome, ResultCache::Outcome::kMiss);
  cache.Complete(MakeKey(3), miss.leader, MakeValue(3, 1.0));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.LookupOrStartCompute(MakeKey(1)).outcome,
            ResultCache::Outcome::kHit);
  EXPECT_EQ(cache.LookupOrStartCompute(MakeKey(2)).outcome,
            ResultCache::Outcome::kMiss);
}

TEST(ResultCacheTest, InvalidateDropsEveryEntry) {
  ResultCache cache(64, 4);
  auto miss = cache.LookupOrStartCompute(MakeKey(9));
  cache.Complete(MakeKey(9), miss.leader, MakeValue(9, 1.0));
  ASSERT_EQ(cache.size(), 1u);

  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.LookupOrStartCompute(MakeKey(9)).outcome,
            ResultCache::Outcome::kMiss);
}

TEST(ResultCacheTest, CompleteAfterInvalidateStillWakesFollowers) {
  ResultCache cache(64, 4);
  auto leader = cache.LookupOrStartCompute(MakeKey(5));
  auto follower = cache.LookupOrStartCompute(MakeKey(5));
  ASSERT_EQ(follower.outcome, ResultCache::Outcome::kInFlight);

  cache.Invalidate();  // entry is gone, promise is not
  cache.Complete(MakeKey(5), leader.leader, MakeValue(5, 2.0));
  EXPECT_DOUBLE_EQ(follower.pending.get()->Get(5), 2.0);
  // The stale completion must not resurrect a cache entry.
  EXPECT_EQ(cache.LookupOrStartCompute(MakeKey(5)).outcome,
            ResultCache::Outcome::kMiss);
}

}  // namespace
}  // namespace hkpr
