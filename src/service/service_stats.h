// Serving-side observability: per-stage counters and a latency histogram.
//
// Every stage of the async query pipeline (admission, cache lookup,
// single-flight coalescing, computation, completion) bumps a lock-free
// counter here, and completed queries record their submit-to-completion
// latency into a log2-bucketed histogram. TakeSnapshot() folds everything
// into a plain struct with approximate p50/p95/p99 figures, so monitoring
// never blocks the serving path.

#ifndef HKPR_SERVICE_SERVICE_STATS_H_
#define HKPR_SERVICE_SERVICE_STATS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hkpr {

/// Log2-bucketed latency histogram over microseconds. Bucket i counts
/// latencies in [2^(i-1), 2^i) us (bucket 0: < 1us), which gives <= 2x
/// relative error on the reported percentiles — plenty for serving
/// dashboards — with wait-free recording.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // 2^39 us ~ 6.4 days

  void Record(double seconds);

  /// Approximate latency (in ms) below which a `q` fraction (0 < q <= 1) of
  /// recorded queries fall: the upper bound of the first bucket whose
  /// cumulative count reaches q * total. Returns 0 when empty.
  double PercentileMs(double q) const;

  uint64_t TotalCount() const;

  /// A plain copy of the bucket counts — snapshot material, so percentiles
  /// stay computable after summing snapshots from several histograms
  /// (multi-graph aggregation, retired-service folding).
  std::array<uint64_t, kBuckets> BucketCounts() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// PercentileMs over raw bucket counts (identical semantics) — for
/// percentiles of merged snapshots.
double LatencyPercentileMs(
    const std::array<uint64_t, LatencyHistogram::kBuckets>& buckets, double q);

/// One traced pipeline stage's latency distribution: bucketed counts for
/// percentiles plus the *exact* microsecond sum for means — the bucketed
/// percentiles carry <= 2x relative error, but means derived from
/// total_us are exact, which is what makes the per-row
/// "stage sums <= total" CI invariant assertable. Filled by
/// ServiceTelemetry when stage tracing is on; all-zero otherwise.
struct StageLatencySnapshot {
  uint64_t count = 0;     ///< completed queries folded into this stage
  uint64_t total_us = 0;  ///< exact sum of stage durations, microseconds
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  double mean_ms() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_us) / 1000.0 /
                            static_cast<double>(count);
  }
};

/// Sums counters and buckets of `from` into `into` and recomputes the
/// percentiles from the merged buckets.
void AddStageSnapshot(StageLatencySnapshot& into,
                      const StageLatencySnapshot& from);

/// Point-in-time copy of the service counters. Counters are monotone over
/// the service's lifetime; `queue_depth` is the only gauge (filled by
/// AsyncQueryService::Stats(), not by ServiceStats itself). The raw
/// latency buckets ride along so aggregating layers can sum snapshots and
/// recompute real percentiles (percentiles themselves do not add).
struct ServiceStatsSnapshot {
  uint64_t submitted = 0;    ///< Submit/SubmitTopK calls (including rejected)
  uint64_t rejected = 0;     ///< refused by admission control (queue full)
  uint64_t invalid_plans = 0;  ///< refused at plan resolution (unknown
                               ///< backend / out-of-range overrides) —
                               ///< malformed input, not admission pressure
  uint64_t completed = 0;    ///< queries finished with QueryStatus::kOk
  uint64_t cancelled = 0;    ///< cancelled before computation started
  uint64_t expired = 0;      ///< deadline passed before computation started
  uint64_t cache_hits = 0;   ///< served from a completed cache entry
  uint64_t cache_misses = 0; ///< cache lookups that became the leader
  uint64_t coalesced = 0;    ///< single-flight waits on an in-flight leader
  uint64_t computed = 0;     ///< estimator invocations (never > misses when
                             ///< the cache is enabled)
  uint64_t stolen = 0;       ///< requests executed by a worker other than the
                             ///< submission shard's owner (work stealing)
  size_t queue_depth = 0;    ///< requests waiting at snapshot time

  uint64_t latency_count = 0;  ///< completed queries in the histogram
  std::array<uint64_t, LatencyHistogram::kBuckets> latency_buckets{};
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;

  /// Per-stage breakdown of the completed-query latency, filled when the
  /// service was built with stage tracing (TelemetryOptions::enabled,
  /// the default). The three stages are disjoint sub-intervals of
  /// [submit, complete] — queue wait (plan-resolved to dequeue), cache
  /// lookup (dequeue to lookup settled), compute (estimator invocation)
  /// — so per query their integer-microsecond durations sum to <= the
  /// total latency; `traced_total_us` is the exact sum of the totals
  /// over the same queries. With tracing off, stage_tracing is false and
  /// the stages are all-zero: exactly the pre-telemetry snapshot.
  bool stage_tracing = false;
  StageLatencySnapshot queue_wait;
  StageLatencySnapshot cache_lookup;
  StageLatencySnapshot compute;
  uint64_t traced_total_us = 0;
};

/// Sums the monotone counters, latency buckets and stage snapshots of
/// `from` into `into` — the aggregation primitive for multi-graph stats,
/// retired-service folding and bench before/after diffs. Gauges
/// (queue_depth) are the caller's concern; call
/// RecomputeSnapshotPercentiles once every part is merged (stage
/// percentiles are recomputed per AddSnapshotCounters call).
void AddSnapshotCounters(ServiceStatsSnapshot& into,
                         const ServiceStatsSnapshot& from);

/// Percentiles do not add; recompute the top-level ones from the merged
/// buckets.
void RecomputeSnapshotPercentiles(ServiceStatsSnapshot& snap);

/// The service's counter block. All methods are thread-safe and wait-free.
class ServiceStats {
 public:
  void RecordSubmitted() { Bump(submitted_); }
  void RecordRejected() { Bump(rejected_); }
  void RecordInvalidPlan() { Bump(invalid_plans_); }
  void RecordCancelled() { Bump(cancelled_); }
  void RecordExpired() { Bump(expired_); }
  void RecordCacheHit() { Bump(cache_hits_); }
  void RecordCacheMiss() { Bump(cache_misses_); }
  void RecordCoalesced() { Bump(coalesced_); }
  void RecordComputed() { Bump(computed_); }

  /// `count` requests were stolen from another worker's submission shard.
  void RecordStolen(uint64_t count) {
    if (count > 0) stolen_.fetch_add(count, std::memory_order_relaxed);
  }

  /// One query finished with kOk after `latency_seconds` in the pipeline.
  void RecordCompleted(double latency_seconds) {
    Bump(completed_);
    latency_.Record(latency_seconds);
  }

  /// Folds the counters and histogram percentiles into a snapshot.
  /// `queue_depth` is left at 0 (the service fills it).
  ServiceStatsSnapshot TakeSnapshot() const;

 private:
  static void Bump(std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> invalid_plans_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> computed_{0};
  std::atomic<uint64_t> stolen_{0};
  LatencyHistogram latency_;
};

}  // namespace hkpr

#endif  // HKPR_SERVICE_SERVICE_STATS_H_
