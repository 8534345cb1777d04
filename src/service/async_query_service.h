// Asynchronous HKPR serving frontend.
//
// AsyncQueryService turns the synchronous query-engine building blocks
// (per-thread backend QueryExecutors, reusable workspaces — see
// hkpr/queries.h) into a service: callers Submit() single-seed or top-k
// queries and get std::future-based handles back; dedicated worker threads
// answer each request on their private executor. The estimator the workers
// run is any backend registered in the EstimatorRegistry (hkpr/backend.h),
// selected by name via ServiceOptions::backend.
//
// Submission is sharded: each worker owns a private FIFO shard (lock +
// condition variable + deque), and submitters spread requests round-robin
// across the shards. At high worker counts a single shared MPMC queue
// becomes the serialization point — every submitter and every worker
// wakeup contends one mutex and bounces one cache line — whereas with
// shards the expected contention on any lock is constant in the worker
// count. Workers drain their own shard in micro-batches of up to
// `max_batch` requests per wakeup (so a loaded service amortizes its
// wakeups over several requests); a worker whose shard is empty *steals*
// the oldest waiting half of a loaded victim's shard, so one slow query
// (or an unlucky round-robin burst) cannot strand requests behind a busy
// worker while others idle.
//
// Idle workers park on their shard's condition variable with no timeout,
// so an idle service makes no wakeups. A worker marks itself idle before
// its last scan of the other shards; a submission that lands on a busy
// worker's shard while some worker is idle sets that idle worker's steal
// hint and wakes it. Because the mark comes before the scan, a push the
// scan missed always finds the worker idle; a hinted worker that takes
// other work first passes the hint to another idle worker. So no request
// waits behind a busy worker while another sleeps. Admission control
// stays exact and global: one atomic counter of waiting requests backs
// both `max_queue_depth` and the queue-depth gauge, and the `stolen`
// counter in ServiceStats makes the rebalancing observable.
//
// Every request is resolved into a per-query QueryPlan (hkpr/router.h) at
// submission time: the service's default backend + params, composed with
// any request-level PlanOverrides, and — when the request or the default
// says "auto" — the rule router (DefaultRouter()) that picks the backend
// from the seed's degree, t and the graph scale. Workers execute plans on
// their plan-aware executors (one lazily built estimator per distinct
// plan), so switching the default backend or parameters is a config update:
// no drain, no worker rebuild, in-flight queries finish on the plan they
// were submitted with.
//
// In front of the workers sits a sharded single-flight ResultCache: repeat
// queries for a hot (seed, plan) pair are served from the cache without
// recomputing, and concurrent requests for the same cold key wait on one
// in-flight computation. A key whose entry is already complete is answered
// on the submitting thread, before any shard hand-off; misses and
// in-flight keys go to a worker. Cache keys embed the *full resolved plan*
// (backend id + every parameter), so two distinct plans can never serve
// each other's entries — and the same resolved plan reached via routing,
// an explicit override, or the default shares one entry, which is exactly
// the dedup a cache wants. ServiceStats counts every stage and records
// each completed query's trace once; Stats() returns a snapshot with
// p50/p95/p99 latencies, the stage breakdown and per-backend rows.
//
// The service answers on an immutable GraphSnapshot (service/graph_store.h)
// that SetSnapshot() replaces as a live config update, like
// SetDefaultParams(): no drain, no thread started, no worker rebuilt. The
// service derives what it needs from a snapshot once (the routing
// features and p'_f, Equation 6). Each request is admitted against the
// snapshot current at submission and carries it to completion: its cache
// key, its top-k ranking and the graph_version on its result all come
// from that snapshot, which the request co-owns. A worker rebinds its
// executor on its first request for another snapshot; executors only
// refer to their graph, so once the last request on a replaced snapshot
// completes, nothing of the service keeps that graph alive. Cache keys
// carry the snapshot's version alone, and store versions are unique, so
// an estimate computed on one snapshot never answers a query on another;
// SetSnapshot() also drops the cache's entries, which can never hit again.
//
// Determinism: every accepted request is assigned a global query index at
// submission time, and the computation for index i draws its randomness
// from QueryRngSeed(engine seed, i), the derivation every QueryExecutor
// uses. A cold service (or one with the cache disabled) therefore returns
// bit-identical estimates to one QueryExecutor answering the same (backend,
// seed sequence, params, engine seed) in submission order, regardless of
// how many workers race over the queue. Indices continue across
// SetSnapshot(): after a republish, query i is answered as one
// QueryExecutor on the new snapshot answers index i. With the cache
// enabled, a repeat of an *already answered* key returns the original
// computation's value instead of drawing fresh randomness — that is the
// point of the cache.

#ifndef HKPR_SERVICE_ASYNC_QUERY_SERVICE_H_
#define HKPR_SERVICE_ASYNC_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/sparse_vector.h"
#include "graph/graph.h"
#include "hkpr/backend.h"
#include "hkpr/params.h"
#include "hkpr/queries.h"
#include "hkpr/router.h"
#include "service/graph_store.h"
#include "service/result_cache.h"
#include "service/service_stats.h"

namespace hkpr {

/// Serving configuration. Stats need none: every service stamps each
/// request's QueryTrace and records each completed query once in its
/// stats block (service/service_stats.h), which the constructor may share
/// with other services.
struct ServiceOptions {
  /// Worker threads; 0 uses all hardware threads.
  uint32_t num_workers = 0;
  /// Admission control: Submit() fails fast with QueryStatus::kRejected
  /// once this many requests are waiting across all submission shards
  /// (0 rejects everything — useful to drain a service without stopping
  /// it).
  size_t max_queue_depth = 1024;
  /// Micro-batch: requests drained per worker wakeup (and the cap on one
  /// steal). Larger batches amortize lock/wakeup costs under load at a
  /// small latency cost.
  uint32_t max_batch = 8;
  /// Completed estimates retained across queries; 0 disables the cache.
  size_t cache_capacity = 4096;
  uint32_t cache_shards = 8;
  /// The default backend requests get when they don't override it — any
  /// EstimatorRegistry name (default "tea+"), or kAutoBackend ("auto") to
  /// route every unpinned request through the rule router. The resolved
  /// plan's stable backend id is folded into every cache key, so distinct
  /// backends never share a cache entry. `backend.context` also supplies
  /// the shared tuning every lazily built plan estimator reads.
  BackendSpec backend;
};

/// Terminal state of one submitted query.
enum class QueryStatus : uint8_t {
  kOk = 0,
  kRejected,   ///< refused at admission (queue full or service stopping)
  kCancelled,  ///< QueryHandle::Cancel() won the race with the worker
  kExpired,    ///< the deadline passed before a worker picked it up, or
               ///< before a cache hit was answered at submission
  kUnknownGraph,  ///< the named graph is not in the GraphStore
                  ///< (MultiGraphService sharding; never set by a
                  ///< single-graph AsyncQueryService)
  kInvalidArgument,  ///< malformed request: plan overrides naming an
                     ///< unregistered backend or out-of-range parameters
                     ///< (any path), or — on the
                     ///< multi-graph path — seed >= NumNodes() of the
                     ///< resolved snapshot (a racy external input under
                     ///< hot-swap) or top-k with k == 0; reported instead
                     ///< of check-failing (the single-graph
                     ///< Submit()/SubmitTopK(), whose caller owns the
                     ///< graph, keep check-fail seed preconditions)
};

/// Printable name of a QueryStatus ("ok", "rejected", ...).
const char* QueryStatusName(QueryStatus status);

/// What the future resolves to.
struct QueryResult {
  QueryStatus status = QueryStatus::kRejected;
  /// The (possibly cached) estimate; set when status == kOk.
  std::shared_ptr<const SparseVector> estimate;
  /// Top-k ranking; filled for SubmitTopK() requests.
  std::vector<ScoredNode> top_k;
  /// The resolved plan's backend: the registry name (never "auto") and its
  /// stable id. How callers observe what a routed query actually ran —
  /// empty/0 for non-kOk outcomes.
  std::string backend;
  uint32_t backend_id = 0;
  /// True when `estimate` was served from the cache (hit or coalesced).
  bool from_cache = false;
  /// Submit-to-completion wall time; 0 for non-kOk outcomes.
  double latency_ms = 0.0;
  /// The version of the graph snapshot this estimate was computed on
  /// (0 for borrowed non-store graphs and for non-kOk outcomes). Under
  /// hot-swap this is always a version that was live at submission time.
  uint64_t graph_version = 0;
};

/// Caller-side handle: the future plus a cancellation flag. Cancel() is
/// advisory — it wins only if the request is still queued.
class QueryHandle {
 public:
  std::future<QueryResult> result;

  void Cancel() {
    if (cancel_) cancel_->store(true, std::memory_order_relaxed);
  }

 private:
  friend class AsyncQueryService;
  std::shared_ptr<std::atomic<bool>> cancel_;
};

/// Per-request submission options.
struct SubmitOptions {
  /// Relative deadline; the zero duration (default) means none. A request
  /// whose deadline has passed when a worker dequeues it, or when its
  /// completed cache entry is found at submission, completes with kExpired
  /// without being computed or served.
  std::chrono::steady_clock::duration timeout{};
  /// Per-request plan overrides: an explicit backend ("auto" to route
  /// adaptively) and/or t / eps_r / delta overrides composed onto the
  /// service defaults. A request naming an unregistered backend or
  /// out-of-range parameters (see ServableParams) completes immediately
  /// with kInvalidArgument.
  PlanOverrides plan;
};

/// The async serving frontend. All public methods are thread-safe; the
/// destructor stops admission, drains the queue and joins the workers.
class AsyncQueryService {
 public:
  /// Serves queries on `snapshot` (see GraphStore) until SetSnapshot()
  /// replaces it. The service and its queued requests co-own the graph
  /// through the snapshot, so a store-side Publish()/Remove() can never
  /// free memory under in-flight queries; the snapshot's version is the
  /// epoch of every cache key and is stamped on every result. Completed
  /// queries are recorded in `stats` when given (MultiGraphService shares
  /// one block among the services it builds for a graph name), else in a
  /// block of the service's own.
  AsyncQueryService(GraphSnapshot snapshot, const ApproxParams& params,
                    uint64_t seed, const ServiceOptions& options = {},
                    std::shared_ptr<ServiceStats> stats = nullptr);

  /// Legacy single-graph entry point: borrows `graph` (which must outlive
  /// the service) as a non-owning version-0 snapshot.
  AsyncQueryService(const Graph& graph, const ApproxParams& params,
                    uint64_t seed, const ServiceOptions& options = {});
  ~AsyncQueryService();

  /// Stops admission, drains the queue, and joins the workers. Idempotent
  /// and thread-safe; every queued request's future resolves before this
  /// returns. Submit() after Shutdown() completes with kRejected. The
  /// destructor calls this — an explicit call makes "graceful drain"
  /// observable (e.g. before folding final stats on graph removal).
  void Shutdown();

  AsyncQueryService(const AsyncQueryService&) = delete;
  AsyncQueryService& operator=(const AsyncQueryService&) = delete;

  /// Enqueues a full-vector HKPR query for `seed`.
  QueryHandle Submit(NodeId seed, const SubmitOptions& submit = {});

  /// Enqueues a top-k proximity query for `seed`. The result's `top_k` is
  /// TopKNormalized of the estimate; the estimate itself is also attached.
  QueryHandle SubmitTopK(NodeId seed, size_t k,
                         const SubmitOptions& submit = {});

  /// Like Submit()/SubmitTopK(), but returns nullopt instead of a
  /// kRejected handle when the service has already been shut down, and
  /// instead of check-failing when `seed` is out of range on the current
  /// snapshot — the signals a routing layer (MultiGraphService) uses to
  /// resolve the graph again after a drop or a shrinking republish,
  /// without holding its registry lock across the enqueue. Queue-full
  /// rejections still resolve kRejected (that is admission control, not
  /// staleness).
  std::optional<QueryHandle> TrySubmit(NodeId seed,
                                       const SubmitOptions& submit = {});
  std::optional<QueryHandle> TrySubmitTopK(NodeId seed, size_t k,
                                           const SubmitOptions& submit = {});

  /// Drops every cached estimate. No-op when the cache is disabled.
  void InvalidateCache();

  /// Serves `snapshot` from now on, as a live config update with the same
  /// no-drain semantics as SetDefaultParams(): queued and in-flight
  /// requests finish on the snapshot they were admitted against, requests
  /// submitted after this returns run on `snapshot`, and the cache's
  /// entries are dropped. p'_f is scanned here, once per snapshot. Returns
  /// false (and changes nothing) when `snapshot` is not newer than the
  /// current one, so racing callers can only move the service forward.
  bool SetSnapshot(GraphSnapshot snapshot);

  /// Switches the default backend — any registered name, or "auto" to
  /// route every unpinned request — as a pure config update: no drain, no
  /// worker rebuild. In-flight and already-queued requests keep the plan
  /// they were submitted with; requests submitted after this returns
  /// resolve against the new default. Returns false (and changes nothing)
  /// for unknown names. Cache entries need no invalidation: keys embed the
  /// full plan, so the old default's entries simply stop matching new
  /// default-plan requests (and still serve explicit requests for that
  /// backend).
  bool SetDefaultBackend(std::string_view backend);

  /// Replaces the default ApproxParams, with the same no-drain semantics
  /// as SetDefaultBackend. p_f changes take effect for newly built plan
  /// estimators (p'_f is re-derived per distinct p_f). Check-fails on
  /// out-of-range params (see ServableParams) — external callers
  /// (MultiGraphService::SetGraphDefaults) validate and refuse first.
  void SetDefaultParams(const ApproxParams& params);

  /// The current default backend name — a registry name or "auto".
  std::string default_backend() const;
  /// The current default parameters.
  ApproxParams default_params() const;

  /// The stats block's snapshot (service/service_stats.h) plus the
  /// current queue depth: counters, latency percentiles, the
  /// queue-wait/cache/compute stage breakdown and the per-backend rows.
  /// A shared block covers every service that records into it.
  ServiceStatsSnapshot Stats() const;

  size_t queue_depth() const;
  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }
  /// The *construction-time* default backend's algorithm name ("TEA+",
  /// "HK-Relax", ...); per-result backends live on QueryResult::backend.
  std::string_view backend_name() const { return backend_name_; }
  /// The construction-time default backend's stable id.
  uint32_t backend_id() const { return backend_id_; }
  /// Accepted queries so far (== the next query's RNG index).
  uint64_t queries_accepted() const;
  /// The snapshot new requests are admitted against. The copy co-owns the
  /// graph, so it stays valid across a concurrent SetSnapshot().
  GraphSnapshot snapshot() const;
  /// That snapshot's store version (0 for borrowed non-store graphs).
  uint64_t graph_version() const;
  /// True once Shutdown() has begun: admission is closed for good. A
  /// routing layer treats a stopped service as gone and builds another
  /// instead of retrying into it. Lock-free, so paths holding their own
  /// locks never stall behind this service's mutexes.
  bool stopped() const { return stopping_.load(std::memory_order_acquire); }

 private:
  /// One snapshot as the service serves it: the graph and its version,
  /// plus what the service derives from it once.
  struct ServedGraph {
    GraphSnapshot snapshot;
    /// Routing features (n, m, average degree), read by every "auto" or
    /// overridden submission.
    GraphScaleFeatures scale;
    /// The executors' backend spec, with p'_f resolved on this graph.
    BackendSpec spec;
  };

  /// A worker's executor and the version of the snapshot it is bound to.
  /// Only the owning worker touches it after construction. The executor
  /// refers to its graph without owning it: an idle worker never keeps a
  /// replaced snapshot alive, and it rebinds before its next use.
  struct BoundExecutor {
    std::unique_ptr<QueryExecutor> executor;
    uint64_t version = 0;
  };

  struct Request {
    NodeId seed = 0;
    size_t k = 0;  // 0 = full-vector query
    uint64_t query_index = 0;
    std::chrono::steady_clock::time_point deadline;  // max() = none
    std::shared_ptr<std::atomic<bool>> cancelled;
    std::promise<QueryResult> promise;
    /// The snapshot current at admission; the request runs, keys, ranks
    /// and reports on it whatever SetSnapshot() does meanwhile.
    std::shared_ptr<const ServedGraph> graph;
    /// The fully resolved plan, fixed at submission time: a later default
    /// switch never retroactively changes what a queued request runs.
    QueryPlan plan;
    ResultCacheKey key;
    /// Stage timestamps (trace.submit is the submission time) and how
    /// the cache treated the query.
    QueryTrace trace;
    CacheOutcome cache_outcome = CacheOutcome::kNone;
  };

  /// The service's live config, read on every submission and updated by
  /// the Set* calls (under config_mu_).
  struct Config {
    std::string backend;  // registry name or kAutoBackend
    ApproxParams params;
    /// Pre-resolved plan for the fast path; valid when backend != "auto".
    QueryPlan plan;
    /// The snapshot new requests are admitted against; never null.
    std::shared_ptr<const ServedGraph> graph;
  };

  /// A request parked on another worker's in-flight computation (resolved
  /// after the rest of the micro-batch, so one hot-key wait never delays
  /// unrelated drained requests).
  struct Deferred {
    Request request;
    std::shared_future<CachedEstimate> pending;
  };

  /// One per-worker submission shard. Cache-line aligned so two shards'
  /// hot state never false-shares.
  struct alignas(64) Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Request> queue;
    /// The owner has found its queue empty and is scanning or parked.
    bool idle = false;
    /// A submitter asked the parked owner to rescan the other shards.
    bool steal_hint = false;
  };

  /// Shared enqueue; `try_submit` selects the TrySubmit contract (nullopt
  /// once shut down or for a seed out of range) over the kRejected handle
  /// and the seed check-fail.
  std::optional<QueryHandle> Enqueue(NodeId seed, size_t k,
                                     const SubmitOptions& submit,
                                     bool try_submit);
  void WorkerLoop(uint32_t worker_id);
  /// Sets the steal hint of one idle worker other than `busy_shard`'s
  /// owner whose hint is clear, and wakes it.
  void HintIdleWorker(size_t busy_shard);
  /// Moves up to min(max_batch, half) waiting requests from the *front* of
  /// the first non-empty victim shard into `batch` (oldest first, so
  /// stealing preserves rough service order and leaves the victim the
  /// newer half). Returns the number taken; the caller settles pending_
  /// and the stolen counter.
  size_t StealInto(uint32_t thief, std::vector<Request>& batch,
                   uint32_t max_batch);
  void Process(BoundExecutor& executor, Request& request,
               std::vector<Deferred>& deferred);
  /// Resolves `request` kExpired and returns true when its deadline has
  /// passed.
  bool ExpireIfLate(Request& request);
  void Fulfill(Request& request, CachedEstimate estimate);
  SparseVector Compute(BoundExecutor& executor, const Request& request);
  Config GetConfig() const;
  /// `snapshot` with its routing features and p'_f: the O(n) part of
  /// serving a snapshot, run before any lock is taken.
  std::shared_ptr<const ServedGraph> Serve(GraphSnapshot snapshot) const;

  ApproxParams params_;
  uint64_t seed_;
  ServiceOptions options_;
  uint32_t backend_id_ = 0;
  std::string backend_name_;
  std::unique_ptr<ResultCache> cache_;  // null when disabled
  std::shared_ptr<ServiceStats> stats_;

  /// Guards the live config only (never held with a shard lock):
  /// submissions read a copy, config updates replace it — neither path
  /// touches the queues, so a backend switch or a republish cannot stall
  /// workers and vice versa.
  mutable std::mutex config_mu_;
  Config config_;

  /// One backend executor (estimator + workspace) per worker thread.
  std::vector<BoundExecutor> executors_;
  std::vector<std::thread> workers_;

  /// One submission shard per worker thread (same index). Submissions are
  /// spread round-robin via next_shard_; see the header comment for the
  /// stealing discipline.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Admitted-and-waiting requests across all shards: the exact
  /// admission-control count (claimed with fetch_add before the shard
  /// push, released when a worker drains or a raced shutdown rejects) and
  /// the queue-depth gauge.
  std::atomic<size_t> pending_{0};
  /// Round-robin shard cursor for submissions.
  std::atomic<uint64_t> next_shard_{0};
  /// Workers whose Shard::idle is set; lets a submission skip the hint
  /// scan when every worker is busy.
  std::atomic<uint32_t> idle_workers_{0};
  /// The next accepted query's deterministic RNG index, claimed in
  /// admission order.
  std::atomic<uint64_t> next_query_index_{0};
  /// Set once by Shutdown() (seq_cst, paired with a per-shard lock fence):
  /// a submitter that already passed admission either lands its request in
  /// a shard before the drain, or observes stopping_ under the shard lock
  /// and rejects inline — no future is ever stranded.
  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;
};

}  // namespace hkpr

#endif  // HKPR_SERVICE_ASYNC_QUERY_SERVICE_H_
