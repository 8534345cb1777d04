// Serving-stack telemetry: per-query stage tracing and a dimensioned
// per-backend metrics registry.
//
// Two observability layers over the flat ServiceStats counter block,
// both wait-free on the serving hot path:
//
//  1. Stage tracing. Every request carries a QueryTrace of monotonic
//     timestamps stamped as it moves through the pipeline
//     (submit -> plan-resolved -> dequeue -> cache-lookup ->
//     compute-begin -> compute-end -> complete). Completed queries fold
//     their three disjoint stage durations — queue wait, cache lookup,
//     compute — into per-stage LatencyHistograms plus exact microsecond
//     sums, so ServiceStatsSnapshot exposes p50/p95/p99 *and* exact
//     means per stage, and "auto reaches 1.7x the best fixed backend"
//     decomposes into where the time actually went. The stage segments
//     are sub-intervals of [submit, complete], so per query
//     queue + cache + compute <= total holds exactly (in integer
//     microseconds), an invariant CI asserts on every bench row.
//
//  2. Dimensioned metrics. Counters and a latency histogram keyed by the
//     resolved backend's stable id, held in a fixed array of CAS-claimed
//     slots (bounded cardinality: distinct backends beyond kMaxBackends
//     fold into one overflow slot, never an allocation on the hot path).
//     MultiGraphService aggregates these per graph across hot-swaps the
//     same way retired ServiceStats fold, which yields the
//     (graph, backend) dimensions of the server's Prometheus-style
//     `metrics` output.
//
// Tracing is a construction-time switch (TelemetryOptions::enabled);
// disabled, the service stamps no clocks, records nothing here, and
// degrades to exactly the pre-telemetry single-histogram behavior.
// Histograms and counters are relaxed atomics (wait-free).

#ifndef HKPR_SERVICE_TELEMETRY_H_
#define HKPR_SERVICE_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/service_stats.h"

namespace hkpr {

/// Construction-time telemetry configuration (ServiceOptions::telemetry).
struct TelemetryOptions {
  /// Master switch. Disabled, the service takes no timestamps beyond the
  /// pre-existing submit/complete pair and keeps only the flat
  /// ServiceStats histogram — the zero-overhead baseline the
  /// trace-overhead bench guard compares against.
  bool enabled = true;
};

/// Monotonic pipeline timestamps for one request, stamped by
/// AsyncQueryService as the request moves through the stages. Only ever
/// touched by one thread at a time (the submitter, then the owning
/// worker), so plain time_points suffice.
struct QueryTrace {
  using Clock = std::chrono::steady_clock;
  Clock::time_point submit{};         ///< Enqueue() entry
  Clock::time_point plan_resolved{};  ///< plan fixed (router/registry done)
  Clock::time_point dequeue{};        ///< a worker picked the request up
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

/// Per-backend counters for one completed query's snapshot row.
struct BackendStatsSnapshot {
  uint32_t backend_id = 0;
  /// Registry name for the id; "other" for the bounded-cardinality
  /// overflow slot, "id:<decimal>" when the id is not (or no longer)
  /// registered.
  std::string backend;
  uint64_t completed = 0;
  uint64_t computed = 0;    ///< cache misses + cache-disabled computes
  uint64_t cache_hits = 0;
  uint64_t coalesced = 0;
  uint64_t latency_count = 0;
  std::array<uint64_t, LatencyHistogram::kBuckets> latency_buckets{};
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
};

/// Everything a telemetry reader gets in one call: the per-backend
/// dimensioned rows, sorted by backend_id. Mergeable across
/// services/hot-swaps via MergeTelemetry().
struct TelemetrySnapshot {
  std::vector<BackendStatsSnapshot> backends;
};

/// Folds `from` into `into` by backend id (rows are re-sorted and
/// percentiles recomputed) — the retired-service aggregation primitive.
void MergeTelemetry(TelemetrySnapshot& into, const TelemetrySnapshot& from);

/// The per-service telemetry block AsyncQueryService owns. All recording
/// methods are thread-safe; Record() is called once per completed (kOk)
/// query.
class ServiceTelemetry {
 public:
  explicit ServiceTelemetry(const TelemetryOptions& options);

  bool enabled() const { return enabled_; }

  /// Folds one completed query into the stage histograms, the exact
  /// stage sums and `backend_id`'s dimensioned row. Each stamp of `trace`
  /// is taken as a microsecond offset from `submit`, clamped to be no
  /// earlier than the stamp before it, so the stages stay disjoint even
  /// if stamps arrive out of order. Unset compute stamps (a cache hit or
  /// coalesced wait) clamp to a zero-width compute at `cache_done`.
  void Record(uint32_t backend_id, CacheOutcome outcome,
              const QueryTrace& trace);

  /// Fills the stage-tracing fields of `snap` (stage_tracing, the three
  /// StageLatencySnapshots, traced_total_us). No-op when disabled — the
  /// snapshot then reports stage_tracing == false and empty stages,
  /// which is exactly the pre-telemetry snapshot shape.
  void FillStages(ServiceStatsSnapshot& snap) const;

  /// Per-backend rows.
  TelemetrySnapshot Snapshot() const;

 private:
  /// Bounded-cardinality backend dimension table. Slots are claimed by
  /// CAS on first sight of a backend id; ids beyond kMaxBackends fold
  /// into the overflow slot.
  static constexpr size_t kMaxBackends = 16;

  struct alignas(64) BackendSlot {
    /// backend_id + 1; 0 = unclaimed (FNV ids are never distinguished
    /// from 0 this way even if one hashed to 0).
    std::atomic<uint64_t> key{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> computed{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> coalesced{0};
    LatencyHistogram latency;
  };

  BackendSlot* FindOrClaimSlot(uint32_t backend_id);
  static void FillBackendRow(const BackendSlot& slot, uint32_t backend_id,
                             BackendStatsSnapshot& row);

  bool enabled_ = false;

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

#endif  // HKPR_SERVICE_TELEMETRY_H_
