// Serving-stack telemetry: per-query stage tracing, a dimensioned
// per-backend metrics registry, and the routing-decision event log.
//
// Three observability layers over the flat ServiceStats counter block,
// all wait-free (or lock-free with a bounded publish window) on the
// serving hot path:
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
//  3. The routing event log. A fixed-capacity lock-free ring of
//     RoutingEvents — one per completed query: the RoutingQuery features
//     the router saw (seed degree, graph scale, effective params), the
//     plan it chose, the cache outcome, and the per-stage timings — with
//     a Drain() snapshot API, so a routing decision can be replayed
//     offline against what it cost.
//
// Tracing is a construction-time switch (TelemetryOptions::enabled);
// disabled, the service stamps no clocks, records nothing here, and
// degrades to exactly the pre-telemetry single-histogram behavior.
//
// Concurrency notes. Histograms and counters are relaxed atomics
// (wait-free). The ring buffer is a per-slot seqlock: writers claim a
// ticket with one fetch_add and publish through an atomic-word payload
// (no data race reportable by TSan, no torn reads accepted by readers);
// a writer spins only when the ring wraps onto a slot whose previous
// writer is still mid-publish, which needs `capacity` concurrent
// appends — with capacity >= 64 and one append per completed query this
// does not happen in practice.

#ifndef HKPR_SERVICE_TELEMETRY_H_
#define HKPR_SERVICE_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "hkpr/params.h"
#include "service/service_stats.h"

namespace hkpr {

/// Construction-time telemetry configuration (ServiceOptions::telemetry).
struct TelemetryOptions {
  /// Master switch. Disabled, the service takes no timestamps beyond the
  /// pre-existing submit/complete pair and keeps only the flat
  /// ServiceStats histogram — the zero-overhead baseline the
  /// trace-overhead bench guard compares against.
  bool enabled = true;
  /// Routing-event ring capacity (rounded up to a power of two, minimum
  /// 64 when non-zero). Oldest events are overwritten once the ring laps
  /// an un-drained reader; 0 disables the event log while keeping stage
  /// histograms and per-backend metrics.
  size_t routing_log_capacity = 1024;
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
  Clock::time_point compute_begin{};  ///< estimator invocation start (==
                                      ///< cache_done for hits/coalesced)
  Clock::time_point compute_end{};    ///< estimator invocation end
};

/// How the cache treated a completed query.
enum class CacheOutcome : uint8_t {
  kNone = 0,   ///< cache disabled
  kHit,        ///< served from a completed entry
  kCoalesced,  ///< waited on another worker's in-flight computation
  kMiss,       ///< became the leader and computed
};

/// Printable name ("none", "hit", "coalesced", "miss").
const char* CacheOutcomeName(CacheOutcome outcome);

/// One completed query: the routing features, the chosen plan, the cache
/// outcome, and the per-stage timings as microsecond offsets from submit.
/// Trivially copyable by construction — the ring buffer publishes events
/// through atomic 64-bit words.
struct RoutingEvent {
  // --- identity ---
  uint64_t query_index = 0;   ///< deterministic RNG index (submission order)
  uint64_t graph_version = 0; ///< snapshot version the query ran on

  // --- RoutingQuery features (see hkpr/router.h) ---
  NodeId seed = 0;
  uint32_t seed_degree = 0;
  uint32_t num_nodes = 0;
  uint64_t num_edges = 0;
  double avg_degree = 0.0;
  ApproxParams params;  ///< effective (post-override) parameters

  // --- decision + outcome ---
  uint32_t backend_id = 0;  ///< resolved plan's stable backend id
  uint8_t routed = 0;       ///< 1 when the router chose the backend
                            ///< ("auto"), 0 for pinned/default plans
  uint8_t cache = 0;        ///< CacheOutcome

  // --- stage timings: offsets from submit, microseconds, monotone
  //     non-decreasing in declaration order ---
  uint64_t plan_us = 0;
  uint64_t dequeue_us = 0;
  uint64_t cache_us = 0;
  uint64_t compute_begin_us = 0;
  uint64_t compute_end_us = 0;
  uint64_t complete_us = 0;

  CacheOutcome cache_outcome() const { return static_cast<CacheOutcome>(cache); }
};
static_assert(std::is_trivially_copyable_v<RoutingEvent>,
              "RoutingEvent ships through atomic words");

/// Fixed-capacity lock-free MPMC ring of RoutingEvents. Append() is the
/// hot path (one fetch_add + a seqlock publish); Drain() snapshots and
/// consumes everything published since the previous drain, counting
/// events the ring overwrote before they were read.
class RoutingEventLog {
 public:
  /// `capacity` is rounded up to a power of two, minimum 64.
  explicit RoutingEventLog(size_t capacity);

  void Append(const RoutingEvent& event);

  /// Everything appended since the last Drain() and still resident, in
  /// append (ticket) order. Stops before an append still mid-publish
  /// (the next drain picks it up). Thread-safe against appenders and
  /// other drainers.
  std::vector<RoutingEvent> Drain();

  /// Total Append() calls over the log's lifetime.
  uint64_t appended() const { return head_.load(std::memory_order_relaxed); }
  /// Events overwritten before any Drain() read them.
  uint64_t dropped() const;

  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kWords = (sizeof(RoutingEvent) + 7) / 8;

  /// One seqlock slot. seq cycles through 2t+1 (ticket t mid-publish) and
  /// 2t+2 (ticket t readable); the payload is atomic words, so a racing
  /// read is never UB and a torn read is always rejected by the seq
  /// recheck.
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  /// The next append ticket; ticket t publishes into slot t & mask_.
  std::atomic<uint64_t> head_{0};

  mutable std::mutex drain_mu_;
  uint64_t next_ = 0;     ///< first un-drained ticket (under drain_mu_)
  uint64_t dropped_ = 0;  ///< overwritten-before-read count (under drain_mu_)
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
/// dimensioned rows (sorted by backend_id) plus the routing-log health
/// counters. Mergeable across services/hot-swaps via MergeTelemetry().
struct TelemetrySnapshot {
  bool enabled = false;
  std::vector<BackendStatsSnapshot> backends;
  uint64_t routing_appended = 0;
  uint64_t routing_dropped = 0;
};

/// Folds `from` into `into` by backend id (rows are re-sorted and
/// percentiles recomputed) — the retired-service aggregation primitive.
void MergeTelemetry(TelemetrySnapshot& into, const TelemetrySnapshot& from);

/// The per-service telemetry block AsyncQueryService owns. All recording
/// methods are thread-safe; Record() is called once per completed (kOk)
/// query with a fully stamped trace.
class ServiceTelemetry {
 public:
  explicit ServiceTelemetry(const TelemetryOptions& options);

  bool enabled() const { return enabled_; }

  /// Folds one completed query: stage histograms + exact stage sums,
  /// the per-backend dimensioned row, and the routing-log append. The
  /// event's stage offsets must be monotone non-decreasing (they are by
  /// construction: the offsets come from clock stamps taken in pipeline
  /// order).
  void Record(const RoutingEvent& event);

  /// Fills the stage-tracing fields of `snap` (stage_tracing, the three
  /// StageLatencySnapshots, traced_total_us). No-op when disabled — the
  /// snapshot then reports stage_tracing == false and empty stages,
  /// which is exactly the pre-telemetry snapshot shape.
  void FillStages(ServiceStatsSnapshot& snap) const;

  /// Per-backend rows + routing-log counters.
  TelemetrySnapshot Snapshot() const;

  /// Drains the routing event log (empty when disabled or capacity 0).
  std::vector<RoutingEvent> DrainRoutingEvents();

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

  std::unique_ptr<RoutingEventLog> routing_log_;  // null when disabled
};

}  // namespace hkpr

#endif  // HKPR_SERVICE_TELEMETRY_H_
