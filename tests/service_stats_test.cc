// Tests for the service's stats block (service/service_stats.h): the log2
// latency histogram and bucket-summed percentiles, the bounded-cardinality
// per-backend slot table, the monotone clamping of stage stamps, merging
// snapshots by backend id, allocation-free recording, stage tracing
// through a live AsyncQueryService (every completed query counted once
// per stage, stage sums within the traced total, one row per resolved
// backend), and MultiGraphService under concurrent hot-swaps (TSan-clean,
// counts survive retirement, totals always equal the rows' sums).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mem_tracker.h"
#include "graph/generators.h"
#include "hkpr/backend.h"
#include "hkpr/queries.h"
#include "hkpr/router.h"
#include "service/async_query_service.h"
#include "service/graph_store.h"
#include "service/multi_graph_service.h"
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

/// The time point `us` microseconds after the trace's submit stamp.
QueryTrace::Clock::time_point After(const QueryTrace& trace, int64_t us) {
  return trace.submit + std::chrono::microseconds(us);
}

/// A cache miss stamped in pipeline order: queue 1 µs, cache 1 µs,
/// compute 8 µs, 11 µs in total.
QueryTrace MissTrace() {
  QueryTrace trace;
  trace.submit = QueryTrace::Clock::now();
  trace.plan_resolved = After(trace, 0);
  trace.dequeue = After(trace, 1);
  trace.cache_done = After(trace, 2);
  trace.compute_begin = After(trace, 2);
  trace.compute_end = After(trace, 10);
  trace.complete = After(trace, 11);
  return trace;
}

/// Sums of `completed` and `latency_count` over a snapshot's rows.
CompletionStats RowSums(const ServiceStatsSnapshot& snap) {
  CompletionStats sums;
  for (const BackendStatsSnapshot& row : snap.backends) {
    sums.completed += row.completed;
    sums.latency_count += row.latency_count;
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Latency histogram.

TEST(ServiceStatsTest, HistogramPercentilesAreOrderedAndBucketed) {
  LatencyHistogram histogram;
  for (int i = 0; i < 99; ++i) histogram.Record(1e-3);  // 1ms
  histogram.Record(1.0);                                // one 1s outlier
  EXPECT_EQ(histogram.TotalCount(), 100u);

  const double p50 = histogram.PercentileMs(0.50);
  const double p99 = histogram.PercentileMs(0.99);
  const double p100 = histogram.PercentileMs(1.0);
  EXPECT_LE(p50, p99);
  EXPECT_LT(p99, p100);
  // 1ms lands in the [512us, 1024us) bucket; its upper bound is ~1.023ms.
  EXPECT_NEAR(p50, 1.023, 0.001);
  EXPECT_GT(p100, 500.0);  // the outlier dominates the last percentile
}

TEST(ServiceStatsTest, SummedBucketPercentilesMatchCombinedHistogram) {
  // The aggregation contract MergeSnapshot relies on: summing raw bucket
  // counts from N independent histograms and running LatencyPercentileMs
  // over the sums yields exactly the percentiles of one histogram that saw
  // every sample. (Percentile *values* do not add; bucket counts do.)
  constexpr int kServices = 3;
  LatencyHistogram shards[kServices];
  LatencyHistogram combined;
  // Distinct latency mixes per shard, spanning several log2 buckets.
  const double samples[kServices][4] = {
      {1e-4, 2e-4, 1e-3, 5e-3},   // fast shard
      {1e-3, 1e-3, 2e-2, 2e-2},   // medium shard
      {5e-3, 1e-1, 1e-1, 1.0},    // slow shard with an outlier
  };
  for (int s = 0; s < kServices; ++s) {
    for (double v : samples[s]) {
      shards[s].Record(v);
      combined.Record(v);
    }
  }

  std::array<uint64_t, LatencyHistogram::kBuckets> summed{};
  for (int s = 0; s < kServices; ++s) {
    const auto counts = shards[s].BucketCounts();
    for (size_t b = 0; b < counts.size(); ++b) summed[b] += counts[b];
  }

  for (double q : {0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(LatencyPercentileMs(summed, q), combined.PercentileMs(q))
        << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// ServiceStats: counters, backend slot table, stage clamping, merging.

TEST(ServiceStatsTest, SnapshotFoldsCounters) {
  ServiceStats stats;
  stats.RecordSubmitted();
  stats.RecordSubmitted();
  QueryTrace hit;
  hit.submit = QueryTrace::Clock::now();
  hit.complete = After(hit, 2000);  // 2 ms
  stats.RecordCompleted(3, CacheOutcome::kHit, hit);
  const ServiceStatsSnapshot snap = stats.TakeSnapshot();
  EXPECT_EQ(snap.submitted, 2u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.latency_count, 1u);
  EXPECT_GT(snap.latency_p50_ms, 0.0);
}

TEST(ServiceStatsTest, BackendDimensionsBoundedWithOverflowSlot) {
  ServiceStats stats;

  // 20 distinct ids: 16 claim slots, 4 fold into the "other" overflow row.
  for (uint32_t id = 1; id <= 20; ++id) {
    // Twice, so per-row completed == 2.
    stats.RecordCompleted(id, CacheOutcome::kMiss, MissTrace());
    stats.RecordCompleted(id, CacheOutcome::kMiss, MissTrace());
  }
  const ServiceStatsSnapshot snap = stats.TakeSnapshot();
  ASSERT_EQ(snap.backends.size(), 17u);  // 16 claimed + overflow

  uint64_t total_completed = 0;
  const BackendStatsSnapshot* overflow = nullptr;
  for (const BackendStatsSnapshot& row : snap.backends) {
    total_completed += row.completed;
    if (row.backend == "other") {
      EXPECT_EQ(overflow, nullptr);
      overflow = &row;
    } else {
      EXPECT_EQ(row.completed, 2u);
      EXPECT_EQ(row.computed, 2u);  // both records were misses
      EXPECT_EQ(row.latency_count, 2u);
    }
  }
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(overflow->completed, 8u);  // 4 overflowed ids x 2 records
  EXPECT_EQ(total_completed, 40u);     // nothing lost to the bound
  // The service-wide figures are the rows' sums.
  EXPECT_EQ(snap.completed, 40u);
  EXPECT_EQ(snap.cache_misses, 40u);
  EXPECT_EQ(snap.computed, 40u);
  EXPECT_EQ(snap.latency_count, 40u);
}

TEST(ServiceStatsTest, MergeFoldsRowsByBackendId) {
  ServiceStats a, b;
  a.RecordCompleted(5, CacheOutcome::kMiss, MissTrace());
  a.RecordCompleted(5, CacheOutcome::kMiss, MissTrace());
  b.RecordCompleted(5, CacheOutcome::kMiss, MissTrace());
  b.RecordCompleted(9, CacheOutcome::kMiss, MissTrace());

  ServiceStatsSnapshot into = a.TakeSnapshot();
  MergeSnapshot(into, b.TakeSnapshot());
  ASSERT_EQ(into.backends.size(), 2u);
  EXPECT_EQ(into.backends[0].backend_id, 5u);
  EXPECT_EQ(into.backends[0].completed, 3u);  // 2 from a + 1 from b
  EXPECT_EQ(into.backends[1].backend_id, 9u);
  EXPECT_EQ(into.backends[1].completed, 1u);
  EXPECT_EQ(into.backends[0].latency_count, 3u);
  EXPECT_GT(into.backends[0].latency_p99_ms, 0.0);
  EXPECT_EQ(into.completed, 4u);
  EXPECT_EQ(into.latency_count, 4u);
  EXPECT_GT(into.latency_p99_ms, 0.0);
  EXPECT_EQ(into.compute.count, 4u);
  EXPECT_EQ(into.compute.total_us, 32u);  // 4 misses x 8 µs
}

TEST(ServiceStatsTest, RecordClampsStampsToMonotoneStages) {
  ServiceStats stats;

  // A hit: the compute stamps stay unset, as the service leaves them.
  QueryTrace hit;
  hit.submit = QueryTrace::Clock::now();
  hit.plan_resolved = After(hit, 10);
  hit.dequeue = After(hit, 20);
  hit.cache_done = After(hit, 30);
  hit.complete = After(hit, 40);
  stats.RecordCompleted(7, CacheOutcome::kHit, hit);

  // A miss whose stamps arrive out of order: dequeue before plan, compute
  // end before compute begin, complete before compute end.
  QueryTrace miss;
  miss.submit = QueryTrace::Clock::now();
  miss.plan_resolved = After(miss, 5);
  miss.dequeue = After(miss, 3);
  miss.cache_done = After(miss, 50);
  miss.compute_begin = After(miss, 80);
  miss.compute_end = After(miss, 60);
  miss.complete = After(miss, 70);
  stats.RecordCompleted(7, CacheOutcome::kMiss, miss);

  const ServiceStatsSnapshot snap = stats.TakeSnapshot();
  EXPECT_EQ(snap.queue_wait.count, 2u);
  EXPECT_EQ(snap.cache_lookup.count, 2u);
  // Only the miss ran an estimator, and its compute clamps to zero width.
  EXPECT_EQ(snap.compute.count, 1u);
  EXPECT_EQ(snap.compute.total_us, 0u);
  EXPECT_EQ(snap.queue_wait.total_us, 10u);    // 10 (hit) + 0 (miss)
  EXPECT_EQ(snap.cache_lookup.total_us, 55u);  // 10 (hit) + 45 (miss)
  EXPECT_EQ(snap.traced_total_us, 120u);       // 40 (hit) + 80 (miss)
  EXPECT_LE(snap.queue_wait.total_us + snap.cache_lookup.total_us +
                snap.compute.total_us,
            snap.traced_total_us);

  ASSERT_EQ(snap.backends.size(), 1u);
  EXPECT_EQ(snap.backends[0].completed, 2u);
  EXPECT_EQ(snap.backends[0].cache_hits, 1u);
  EXPECT_EQ(snap.backends[0].computed, 1u);
}

TEST(ServiceStatsTest, RecordCompletedAllocatesNothing) {
  // The counting operator new in workspace_test.cc feeds AllocCounters for
  // the whole test binary.
  const auto stats = std::make_unique<ServiceStats>();
  const QueryTrace trace = MissTrace();
  constexpr CacheOutcome kOutcomes[] = {CacheOutcome::kNone, CacheOutcome::kHit,
                                        CacheOutcome::kCoalesced,
                                        CacheOutcome::kMiss};
  constexpr uint32_t kIds = 20;  // 16 slots, the rest in the overflow row
  constexpr uint32_t kRounds = 1000;

  const uint64_t before = AllocCounters::Allocations();
  for (uint32_t round = 0; round < kRounds; ++round) {
    for (uint32_t id = 1; id <= kIds; ++id) {
      stats->RecordCompleted(id, kOutcomes[round % 4], trace);
    }
  }
  EXPECT_EQ(AllocCounters::Allocations(), before);

  const ServiceStatsSnapshot snap = stats->TakeSnapshot();
  EXPECT_EQ(snap.backends.size(), 17u);
  EXPECT_EQ(snap.completed, uint64_t{kIds} * kRounds);
  EXPECT_EQ(snap.cache_hits, snap.completed / 4);
  EXPECT_EQ(snap.coalesced, snap.completed / 4);
  EXPECT_EQ(snap.cache_misses, snap.completed / 4);
  EXPECT_EQ(snap.computed, snap.completed / 2);  // misses + cache disabled
}

// ---------------------------------------------------------------------------
// Stage tracing through a live service.

TEST(TracedServiceTest, EveryCompletedQueryProducesOneMonotoneEvent) {
  Graph g = PowerlawCluster(400, 3, 0.3, 7);
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 64;
  options.backend.name = "tea+";
  AsyncQueryService service(g, TestParams(1e-5), 77, options);

  // Distinct seeds plus a tail of repeats: misses, then hits/coalesced.
  std::vector<NodeId> seeds = {1, 5, 9, 22, 60, 120, 350};
  for (int rep = 0; rep < 3; ++rep) seeds.insert(seeds.end(), {1, 5, 9});
  std::vector<QueryHandle> handles;
  for (NodeId seed : seeds) handles.push_back(service.Submit(seed));
  for (QueryHandle& h : handles) {
    ASSERT_EQ(h.result.get().status, QueryStatus::kOk);
  }

  const ServiceStatsSnapshot stats = service.Stats();
  ASSERT_EQ(stats.completed, seeds.size());
  EXPECT_EQ(stats.cache_misses + stats.cache_hits + stats.coalesced,
            stats.completed);

  // Every completed query is traced exactly once: queue wait and cache
  // lookup count each one, compute only the queries that ran an estimator.
  EXPECT_EQ(stats.queue_wait.count, stats.completed);
  EXPECT_EQ(stats.cache_lookup.count, stats.completed);
  EXPECT_EQ(stats.compute.count, stats.cache_misses);
  // Every miss spent at least a microsecond in its estimator.
  EXPECT_GE(stats.compute.total_us, stats.cache_misses);

  // The aggregate invariant the benches/CI assert, at the source: the
  // disjoint stage sums never exceed the traced submit->complete total.
  const uint64_t stage_sum = stats.queue_wait.total_us +
                             stats.cache_lookup.total_us +
                             stats.compute.total_us;
  EXPECT_LE(stage_sum, stats.traced_total_us);

  // Per-backend dimension row: everything landed on tea+.
  ASSERT_EQ(stats.backends.size(), 1u);
  const BackendStatsSnapshot& row = stats.backends[0];
  EXPECT_EQ(row.backend, "tea+");
  EXPECT_EQ(row.backend_id, StableBackendId("tea+"));
  EXPECT_EQ(row.completed, seeds.size());
  EXPECT_EQ(row.computed, stats.cache_misses);
  EXPECT_EQ(row.cache_hits, stats.cache_hits);
  EXPECT_EQ(row.coalesced, stats.coalesced);
  EXPECT_EQ(row.latency_count, seeds.size());
}

TEST(TracedServiceTest, QueriesLandOnTheirResolvedBackendRows) {
  Graph g = PowerlawCluster(400, 3, 0.3, 7);
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // every query computes; outcomes are kNone
  AsyncQueryService service(g, TestParams(1e-4), 77, options);

  SubmitOptions routed;
  routed.plan.backend = std::string(kAutoBackend);
  SubmitOptions pinned;
  pinned.plan.backend = "hk-relax";
  std::map<std::string, uint64_t> ran;
  for (const QueryResult& result :
       {service.Submit(3, routed).result.get(),
        service.Submit(4, pinned).result.get(),
        service.Submit(5).result.get()}) {
    ASSERT_EQ(result.status, QueryStatus::kOk);
    ++ran[result.backend];
  }
  // The pinned query ran hk-relax and the default one tea+; the routed
  // one ran whichever of the two the router chose.
  ASSERT_GE(ran["hk-relax"], 1u);
  ASSERT_GE(ran["tea+"], 1u);
  ASSERT_EQ(ran.size(), 2u);

  // Each backend gets its own row, counting exactly the queries that ran
  // it; with the cache off every one of them computed.
  const ServiceStatsSnapshot stats = service.Stats();
  ASSERT_EQ(stats.backends.size(), 2u);
  for (const BackendStatsSnapshot& row : stats.backends) {
    EXPECT_EQ(row.backend_id, StableBackendId(row.backend));
    EXPECT_EQ(row.completed, ran[row.backend]) << row.backend;
    EXPECT_EQ(row.computed, row.completed) << row.backend;
    EXPECT_EQ(row.cache_hits + row.coalesced, 0u) << row.backend;
  }
  EXPECT_EQ(stats.computed, 3u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// MultiGraphService under hot-swaps (run under TSan in CI).

TEST(TracedMultiGraphStressTest, HotSwapsPreserveEventsAndMonotonicity) {
  constexpr uint32_t kBaseNodes = 120;
  constexpr uint32_t kPublishes = 6;
  constexpr uint32_t kClients = 3;
  constexpr uint32_t kPerClient = 40;

  GraphStore store;
  MultiGraphOptions options;
  options.worker_budget = 4;
  MultiGraphService service(store, TestParams(1e-2), 13, options);
  const uint64_t v_first =
      service.Publish("g", PowerlawCluster(kBaseNodes, 3, 0.3, 0));

  std::atomic<uint64_t> completed{0};
  std::atomic<bool> serving{true};
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (uint32_t i = 0; i < kPerClient; ++i) {
        const NodeId seed = static_cast<NodeId>((c * 41 + i) % kBaseNodes);
        const QueryResult result = service.Submit("g", seed).result.get();
        ASSERT_EQ(result.status, QueryStatus::kOk);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // A reader races the clients and the publisher: every snapshot's totals
  // are its rows' sums, and the cumulative count never goes back, across
  // retirements included.
  uint64_t reads = 0;
  std::thread reader([&] {
    uint64_t last_completed = 0;
    while (serving.load(std::memory_order_relaxed)) {
      const ServiceStatsSnapshot snap = service.StatsFor("g");
      const CompletionStats sums = RowSums(snap);
      EXPECT_EQ(snap.completed, sums.completed);
      EXPECT_EQ(snap.latency_count, sums.latency_count);
      EXPECT_GE(snap.completed, last_completed);
      last_completed = snap.completed;
      ++reads;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // Publisher races the clients: each Publish retires the live service,
  // whose stats must fold into the graph's aggregate instead of vanishing.
  for (uint32_t k = 1; k <= kPublishes; ++k) {
    service.Publish("g", PowerlawCluster(kBaseNodes + k, 3, 0.3, k));
  }
  for (std::thread& t : clients) t.join();
  serving.store(false, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(reads, 0u);
  ASSERT_EQ(completed.load(), kClients * kPerClient);
  ASSERT_EQ(store.Get("g").version, v_first + kPublishes);

  // The dimension rows aggregate across every retired generation: every
  // completed query is on the one tea+ row.
  const ServiceStatsSnapshot stats = service.StatsFor("g");
  ASSERT_EQ(stats.backends.size(), 1u);
  EXPECT_EQ(stats.backends[0].backend, "tea+");
  EXPECT_EQ(stats.backends[0].completed, completed.load());

  // Aggregated per-graph stage stats survived the swaps too: one trace
  // per completed query, compute only on misses, and the stage sums
  // within the traced total.
  EXPECT_EQ(stats.completed, completed.load());
  EXPECT_EQ(stats.queue_wait.count, completed.load());
  EXPECT_EQ(stats.cache_lookup.count, completed.load());
  EXPECT_EQ(stats.compute.count, stats.cache_misses);
  EXPECT_EQ(stats.backends[0].computed, stats.cache_misses);
  EXPECT_LE(stats.queue_wait.total_us + stats.cache_lookup.total_us +
                stats.compute.total_us,
            stats.traced_total_us);
}

}  // namespace
}  // namespace hkpr
