// Serving-side observability: one stats block per service, or per graph
// name. MultiGraphService owns one block per name and every service it
// builds for that name records into it, so a graph's stats are cumulative
// across republishes and drops without any folding.
//
// The requests that never complete (rejected, invalid plans, cancelled,
// expired) bump a lock-free counter as they happen. Every completed query
// is folded in by one call, RecordCompleted(), from the QueryTrace of
// monotonic timestamps the service stamps as the request moves through
// the pipeline:
//
//   submit -> plan-resolved -> dequeue -> cache-lookup -> compute-begin
//          -> compute-end -> complete
//
// The trace yields three disjoint stage durations (queue wait, cache
// lookup, compute), each recorded in a LatencyHistogram plus an exact
// microsecond sum, and the submit-to-complete total. The query is counted
// by CacheOutcome in its resolved backend's slot, which also keeps that
// backend's latency histogram. Slots are claimed by CAS in a fixed table,
// so backends beyond kMaxBackends fold into one overflow slot and
// recording never allocates.
//
// TakeSnapshot() derives the service-wide completed, cache and latency
// figures as sums over the slots' rows, so a snapshot's totals and its
// per-backend rows always agree. MergeSnapshot() folds snapshots across
// graphs (multi-graph aggregation), with rows merged by backend id.
// Everything is relaxed atomics: monitoring never blocks the serving path.

#ifndef HKPR_SERVICE_SERVICE_STATS_H_
#define HKPR_SERVICE_SERVICE_STATS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hkpr {

/// Log2-bucketed latency histogram over microseconds. Bucket i counts
/// latencies in [2^(i-1), 2^i) us (bucket 0: < 1us), which gives <= 2x
/// relative error on the reported percentiles — plenty for serving
/// dashboards — with wait-free recording.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // 2^39 us ~ 6.4 days

  void Record(double seconds);
  /// Record() for a latency already in whole microseconds.
  void RecordUs(uint64_t us);

  /// Approximate latency (in ms) below which a `q` fraction (0 < q <= 1) of
  /// recorded queries fall: the upper bound of the first bucket whose
  /// cumulative count reaches q * total. Returns 0 when empty.
  double PercentileMs(double q) const;

  uint64_t TotalCount() const;

  /// A plain copy of the bucket counts — snapshot material, so percentiles
  /// stay computable after summing snapshots from several histograms
  /// (multi-graph aggregation).
  std::array<uint64_t, kBuckets> BucketCounts() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// PercentileMs over raw bucket counts (identical semantics) — for
/// percentiles of merged snapshots.
double LatencyPercentileMs(
    const std::array<uint64_t, LatencyHistogram::kBuckets>& buckets, double q);

/// Monotonic pipeline timestamps for one request, stamped by
/// AsyncQueryService as the request moves through the stages. Only ever
/// touched by one thread at a time (the submitter, then the owning
/// worker), so plain time_points suffice.
struct QueryTrace {
  using Clock = std::chrono::steady_clock;
  Clock::time_point submit{};         ///< Enqueue() entry
  Clock::time_point plan_resolved{};  ///< plan fixed (router/registry done)
  Clock::time_point dequeue{};        ///< a worker picked the request up,
                                      ///< or a submitter began the lookup
                                      ///< that answered a cache hit
  Clock::time_point cache_done{};     ///< cache lookup settled (== dequeue
                                      ///< when the cache is disabled)
  Clock::time_point compute_begin{};  ///< estimator invocation start
                                      ///< (unset for hits/coalesced)
  Clock::time_point compute_end{};    ///< estimator invocation end
  Clock::time_point complete{};       ///< answer ready, promise not yet set
};

/// How the cache treated a completed query.
enum class CacheOutcome : uint8_t {
  kNone = 0,   ///< cache disabled
  kHit,        ///< served from a completed entry
  kCoalesced,  ///< waited on another worker's in-flight computation
  kMiss,       ///< became the leader and computed
};

/// One traced pipeline stage's latency distribution: bucketed counts for
/// percentiles plus the *exact* microsecond sum for means — the bucketed
/// percentiles carry <= 2x relative error, but means derived from
/// total_us are exact, which is what makes the per-row
/// "stage sums <= total" CI invariant assertable.
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

/// Counts and submit-to-complete latencies of completed (kOk) queries:
/// one set per backend row, and their sum for the whole snapshot. The raw
/// latency buckets ride along so aggregating layers can sum snapshots and
/// recompute real percentiles (percentiles themselves do not add).
struct CompletionStats {
  uint64_t completed = 0;     ///< queries finished with QueryStatus::kOk
  uint64_t cache_hits = 0;    ///< served from a completed cache entry
  uint64_t cache_misses = 0;  ///< cache lookups that became the leader
  uint64_t coalesced = 0;     ///< single-flight waits on an in-flight leader
  uint64_t computed = 0;      ///< estimator invocations: cache misses plus
                              ///< queries served with the cache disabled

  uint64_t latency_count = 0;  ///< completed queries in the histogram
  std::array<uint64_t, LatencyHistogram::kBuckets> latency_buckets{};
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
};

/// One resolved backend's completed queries.
struct BackendStatsSnapshot : CompletionStats {
  uint32_t backend_id = 0;
  /// Registry name for the id; "other" for the bounded-cardinality
  /// overflow slot, "id:<decimal>" when the id is not (or no longer)
  /// registered.
  std::string backend;
};

/// Point-in-time copy of a stats block. Counters are monotone over the
/// block's lifetime; `queue_depth` is the only gauge (filled by
/// AsyncQueryService::Stats(), not by ServiceStats itself). The
/// CompletionStats part is the sum of `backends`.
struct ServiceStatsSnapshot : CompletionStats {
  uint64_t submitted = 0;    ///< Submit/SubmitTopK calls (including rejected)
  uint64_t rejected = 0;     ///< refused by admission control (queue full)
  uint64_t invalid_plans = 0;  ///< refused at plan resolution (unknown
                               ///< backend / out-of-range overrides) —
                               ///< malformed input, not admission pressure
  uint64_t cancelled = 0;    ///< cancelled before computation started
  uint64_t expired = 0;      ///< deadline passed before computation started
  uint64_t stolen = 0;       ///< requests executed by a worker other than the
                             ///< submission shard's owner (work stealing)
  size_t queue_depth = 0;    ///< requests waiting at snapshot time

  /// Per-stage breakdown of the completed-query latency. The three stages
  /// are disjoint sub-intervals of [submit, complete] — queue wait
  /// (plan-resolved to dequeue), cache lookup (dequeue to lookup settled),
  /// compute (estimator invocation) — so per query their
  /// integer-microsecond durations sum to <= the total latency;
  /// `traced_total_us` is the exact sum of the totals over the same
  /// queries.
  StageLatencySnapshot queue_wait;
  StageLatencySnapshot cache_lookup;
  StageLatencySnapshot compute;
  uint64_t traced_total_us = 0;

  /// Per-backend rows, sorted by backend_id.
  std::vector<BackendStatsSnapshot> backends;
};

/// Sums every counter, gauge, histogram and stage of `from` into `into`,
/// folds the backend rows by id, and recomputes the percentiles from the
/// merged buckets — the aggregation primitive for multi-graph stats.
void MergeSnapshot(ServiceStatsSnapshot& into,
                   const ServiceStatsSnapshot& from);

/// A stats block, recorded into by one service or by every service built
/// for one graph name. All methods are thread-safe and wait-free.
class ServiceStats {
 public:
  void RecordSubmitted() { Bump(submitted_); }
  void RecordRejected() { Bump(rejected_); }
  void RecordInvalidPlan() { Bump(invalid_plans_); }
  void RecordCancelled() { Bump(cancelled_); }
  void RecordExpired() { Bump(expired_); }

  /// `count` requests were stolen from another worker's submission shard.
  void RecordStolen(uint64_t count) {
    if (count > 0) stolen_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Folds one query that finished with kOk into the stage histograms,
  /// the exact stage sums and `backend_id`'s slot. Each stamp of `trace`
  /// is taken as a microsecond offset from `submit`, clamped to be no
  /// earlier than the stamp before it, so the stages stay disjoint even
  /// if stamps arrive out of order. Unset compute stamps (a cache hit or
  /// coalesced wait) clamp to a zero-width compute at `cache_done`.
  void RecordCompleted(uint32_t backend_id, CacheOutcome outcome,
                       const QueryTrace& trace);

  /// Folds the block into a snapshot. `queue_depth` is left at 0 (the
  /// service fills it).
  ServiceStatsSnapshot TakeSnapshot() const;

 private:
  static constexpr size_t kMaxBackends = 16;
  static constexpr size_t kOutcomes = 4;  // CacheOutcome values

  struct alignas(64) BackendSlot {
    /// backend_id + 1; 0 = unclaimed.
    std::atomic<uint64_t> key{0};
    /// Completed queries, indexed by CacheOutcome.
    std::array<std::atomic<uint64_t>, kOutcomes> outcomes{};
    LatencyHistogram latency;
  };

  static void Bump(std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }
  /// The slot claimed for `backend_id`, claiming a free one on first
  /// sight; the overflow slot once all kMaxBackends are taken.
  BackendSlot& SlotFor(uint32_t backend_id);

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> invalid_plans_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> stolen_{0};

  // Stage histograms (log2 buckets, for percentiles) and exact
  // microsecond sums (for means and the sums<=total CI invariant).
  LatencyHistogram queue_wait_;
  LatencyHistogram cache_lookup_;
  LatencyHistogram compute_;
  std::atomic<uint64_t> queue_wait_us_{0};
  std::atomic<uint64_t> cache_lookup_us_{0};
  std::atomic<uint64_t> compute_us_{0};
  std::atomic<uint64_t> total_us_{0};

  std::array<BackendSlot, kMaxBackends> backend_slots_{};
  BackendSlot overflow_slot_{};
};

}  // namespace hkpr

#endif  // HKPR_SERVICE_SERVICE_STATS_H_
