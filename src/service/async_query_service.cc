#include "service/async_query_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace hkpr {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

const char* QueryStatusName(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kRejected:
      return "rejected";
    case QueryStatus::kCancelled:
      return "cancelled";
    case QueryStatus::kExpired:
      return "expired";
    case QueryStatus::kUnknownGraph:
      return "unknown-graph";
    case QueryStatus::kInvalidArgument:
      return "invalid-argument";
  }
  return "invalid";
}

AsyncQueryService::AsyncQueryService(GraphSnapshot snapshot,
                                     const ApproxParams& params, uint64_t seed,
                                     const ServiceOptions& options,
                                     std::shared_ptr<ServiceStats> stats)
    : params_(params),
      seed_(seed),
      options_(options),
      stats_(stats != nullptr ? std::move(stats)
                              : std::make_shared<ServiceStats>()) {
  HKPR_CHECK(snapshot.graph != nullptr) << "service needs a graph snapshot";
  // Die at startup on out-of-range defaults, not on whichever request
  // happens to trigger plan resolution first (ResolveQueryPlan reports
  // rather than aborts, relying on this construction-time validation).
  HKPR_CHECK(ServableParams(params))
      << "service ApproxParams out of range (t in (0, 700], eps_r in "
         "(0, 1), delta in (0, 1], p_f in (0, 1))";
  uint32_t num_workers = options.num_workers;
  if (num_workers == 0) {
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(options.cache_capacity,
                                           options.cache_shards);
  }

  config_.graph = Serve(std::move(snapshot));
  const ServedGraph& served = *config_.graph;
  executors_.resize(num_workers);
  for (BoundExecutor& bound : executors_) {
    bound.executor = std::make_unique<QueryExecutor>(
        *served.snapshot.graph, params, seed, served.spec);
    bound.version = served.snapshot.version;
  }
  // The registry's collision-checked id (as resolved by the executors),
  // folded into every cache key.
  const QueryExecutor& first = *executors_.front().executor;
  backend_id_ = first.backend_id();
  backend_name_ = std::string(first.backend_name());

  config_.backend = options.backend.name;
  config_.params = params;
  if (config_.backend != kAutoBackend) {
    // Pre-resolve the fast path: unpinned requests reuse this plan
    // without consulting the registry per submission.
    config_.plan = first.default_plan();
  }

  shards_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

std::shared_ptr<const AsyncQueryService::ServedGraph> AsyncQueryService::Serve(
    GraphSnapshot snapshot) const {
  auto served = std::make_shared<ServedGraph>();
  const Graph& graph = *snapshot.graph;
  served->scale = GraphScaleFeatures::Of(graph);
  // An "auto" default means every unpinned request is routed per query;
  // the executors still need a concrete backend for their eagerly built
  // default estimator — warm the router's usual winner.
  BackendSpec exec_spec = options_.backend;
  if (exec_spec.name == kAutoBackend) exec_spec.name = "tea+";
  // Resolve shared precomputations once for all per-worker executors;
  // ResolvedSpec check-fails on unknown backend names, so a misconfigured
  // service dies loudly at construction. p'_f is resolved even for
  // deterministic defaults (one O(n) scan): a routed or overridden plan
  // may lazily build a randomized backend on any worker.
  served->spec = ResolvedSpec(exec_spec, graph, params_);
  if (served->spec.context.pf_prime < 0.0) {
    served->spec.context.pf_prime = ComputePfPrime(graph, params_.p_f);
  }
  served->snapshot = std::move(snapshot);
  return served;
}

bool AsyncQueryService::SetSnapshot(GraphSnapshot snapshot) {
  HKPR_CHECK(snapshot.graph != nullptr) << "service needs a graph snapshot";
  // The version check is repeated under the lock; this one only spares a
  // caller that lost a race the O(n) scan.
  if (snapshot.version <= graph_version()) return false;
  std::shared_ptr<const ServedGraph> served = Serve(std::move(snapshot));
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    if (served->snapshot.version <= config_.graph->snapshot.version) {
      return false;
    }
    config_.graph.swap(served);
  }
  // `served` now holds the replaced snapshot, released outside the lock.
  // Its cache entries can never hit again: every key carries its version.
  InvalidateCache();
  return true;
}

GraphSnapshot AsyncQueryService::snapshot() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return config_.graph->snapshot;
}

uint64_t AsyncQueryService::graph_version() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return config_.graph->snapshot.version;
}

bool AsyncQueryService::SetDefaultBackend(std::string_view backend) {
  QueryPlan plan;
  if (backend != kAutoBackend) {
    const BackendInfo* info = EstimatorRegistry::Global().Find(backend);
    if (info == nullptr) return false;
    plan.backend = std::string(backend);
    plan.backend_id = info->stable_id;
  }
  std::lock_guard<std::mutex> lock(config_mu_);
  config_.backend = std::string(backend);
  if (backend != kAutoBackend) {
    plan.params = config_.params;
    config_.plan = std::move(plan);
  }
  return true;
}

void AsyncQueryService::SetDefaultParams(const ApproxParams& params) {
  HKPR_CHECK(ServableParams(params))
      << "default ApproxParams out of range (t in (0, 700], eps_r in "
         "(0, 1), delta in (0, 1], p_f in (0, 1))";
  std::lock_guard<std::mutex> lock(config_mu_);
  config_.params = params;
  config_.plan.params = params;
}

std::string AsyncQueryService::default_backend() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return config_.backend;
}

ApproxParams AsyncQueryService::default_params() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return config_.params;
}

AsyncQueryService::Config AsyncQueryService::GetConfig() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return config_;
}

AsyncQueryService::AsyncQueryService(const Graph& graph,
                                     const ApproxParams& params, uint64_t seed,
                                     const ServiceOptions& options)
    : AsyncQueryService(GraphSnapshot::Borrowed(graph), params, seed,
                        options) {}

void AsyncQueryService::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true);  // seq_cst, paired with Enqueue's in-lock check
    for (std::unique_ptr<Shard>& shard : shards_) {
      // Lock/unlock fence: any submitter that passed its in-lock stopping
      // check on this shard has already pushed (a worker will drain it);
      // any submitter arriving later observes stopping_ under the lock and
      // rejects inline. Notify under no lock is safe: a parked worker
      // re-evaluates its predicate, which reads stopping_, under the shard
      // lock, so it either saw stopping_ before the fence or is already
      // waiting when this notify arrives.
      { std::lock_guard<std::mutex> lock(shard->mu); }
      shard->cv.notify_all();
    }
    for (std::thread& worker : workers_) worker.join();
  });
}

AsyncQueryService::~AsyncQueryService() { Shutdown(); }

namespace {

ResultCacheKey MakeKey(const QueryPlan& plan, NodeId seed,
                       uint64_t graph_version) {
  ResultCacheKey key;
  // The version of the snapshot the request was admitted against. Store
  // versions are unique per snapshot, and a service only moves to newer
  // ones, so no two snapshots ever share a key.
  key.graph_version = graph_version;
  key.seed = seed;
  // The *resolved plan* is the key: backend id plus every effective
  // parameter, so no two distinct plans can ever share an entry — and the
  // same plan reached via routing, override or default shares one.
  key.backend_id = plan.backend_id;
  key.t = plan.params.t;
  key.eps_r = plan.params.eps_r;
  key.delta = plan.params.delta;
  key.p_f = plan.params.p_f;
  return key;
}

}  // namespace

std::optional<QueryHandle> AsyncQueryService::Enqueue(
    NodeId seed, size_t k, const SubmitOptions& submit, bool try_submit) {
  Config config = GetConfig();
  const Graph& graph = *config.graph->snapshot.graph;
  if (seed >= graph.NumNodes()) {
    // A TrySubmit caller checked the seed on a snapshot that a republish
    // may since have replaced: it resolves the graph again.
    HKPR_CHECK(try_submit) << "query seed out of range";
    return std::nullopt;
  }
  QueryHandle handle;
  handle.cancel_ = std::make_shared<std::atomic<bool>>(false);
  std::promise<QueryResult> promise;
  handle.result = promise.get_future();

  Request request;
  request.seed = seed;
  request.k = k;
  request.trace.submit = Clock::now();
  request.deadline = submit.timeout == Clock::duration::zero()
                         ? Clock::time_point::max()
                         : request.trace.submit + submit.timeout;
  request.cancelled = handle.cancel_;

  // Resolve the request into its plan now — a queued request is immune to
  // later default switches. Unpinned requests under a concrete default
  // take the pre-resolved plan; everything else (overrides, "auto")
  // resolves through the router/registry.
  if (submit.plan.empty() && config.backend != kAutoBackend) {
    request.plan = std::move(config.plan);
  } else {
    std::optional<QueryPlan> plan =
        ResolveQueryPlan(graph, seed, config.graph->scale, config.backend,
                         config.params, submit.plan, DefaultRouter());
    if (!plan.has_value()) {
      // The request named an unregistered backend or out-of-range
      // parameter overrides: report, don't abort — and don't consume a
      // query index. Counted as invalid_plans, not rejected: this is
      // malformed input, not admission pressure.
      stats_->RecordSubmitted();
      stats_->RecordInvalidPlan();
      QueryResult result;
      result.status = QueryStatus::kInvalidArgument;
      promise.set_value(std::move(result));
      return handle;
    }
    request.plan = *std::move(plan);
  }
  request.key = MakeKey(request.plan, seed, config.graph->snapshot.version);
  request.graph = std::move(config.graph);
  request.trace.plan_resolved = Clock::now();

  if (stopping_.load()) {
    if (try_submit) return std::nullopt;
    stats_->RecordSubmitted();
    stats_->RecordRejected();
    promise.set_value(QueryResult{});  // kRejected
    return handle;
  }
  stats_->RecordSubmitted();
  // Exact global admission without any shared lock: claim a waiting slot;
  // undo and reject if the claim overshot the bound.
  if (pending_.fetch_add(1) >= options_.max_queue_depth) {
    pending_.fetch_sub(1);
    stats_->RecordRejected();
    promise.set_value(QueryResult{});  // kRejected
    return handle;
  }
  request.query_index = next_query_index_.fetch_add(1);
  request.promise = std::move(promise);

  // A completed entry is answered here, on the submitting thread: no shard
  // hand-off and no worker wakeup. The admission and query-index claims
  // above are already made, so rejections and every later miss's RNG
  // index are the same as on the worker path. The waiting slot is
  // released only after the answer is recorded: workers exit on
  // pending_ == 0, so Shutdown() still returns only after every admitted
  // request is in the stats. Misses and in-flight keys go to a worker,
  // whose LookupOrStartCompute() keeps single-flight.
  if (cache_ != nullptr) {
    const Clock::time_point lookup_begin = Clock::now();
    if (CachedEstimate hit = cache_->FindCompleted(request.key)) {
      request.trace.dequeue = lookup_begin;
      request.trace.cache_done = Clock::now();
      if (!ExpireIfLate(request)) {
        request.cache_outcome = CacheOutcome::kHit;
        Fulfill(request, std::move(hit));
      }
      pending_.fetch_sub(1);
      return handle;
    }
  }

  const size_t shard_index =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = *shards_[shard_index];
  bool owner_idle = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (stopping_.load()) {
      // Shutdown began after the admission check; its drain may already
      // have passed this shard, so resolve the request here instead of
      // stranding the future in a dead queue.
      pending_.fetch_sub(1);
      stats_->RecordRejected();
      if (try_submit) return std::nullopt;
      request.promise.set_value(QueryResult{});  // kRejected
      return handle;
    }
    shard.queue.push_back(std::move(request));
    owner_idle = shard.idle;
  }
  if (owner_idle) {
    // The owner's wait predicate reads its queue under the lock just held.
    shard.cv.notify_one();
  } else if (idle_workers_.load() > 0) {
    // The owner is busy and may stay busy for a whole query: hand the
    // request to an idle worker's steal instead of letting it wait.
    HintIdleWorker(shard_index);
  }
  return handle;
}

void AsyncQueryService::HintIdleWorker(size_t busy_shard) {
  const size_t num_shards = shards_.size();
  for (size_t hop = 1; hop < num_shards; ++hop) {
    Shard& shard = *shards_[(busy_shard + hop) % num_shards];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      // A worker whose hint is already set will rescan anyway.
      if (!shard.idle || shard.steal_hint) continue;
      shard.steal_hint = true;
    }
    shard.cv.notify_one();
    return;
  }
}

QueryHandle AsyncQueryService::Submit(NodeId seed,
                                      const SubmitOptions& submit) {
  return *Enqueue(seed, 0, submit, /*try_submit=*/false);
}

QueryHandle AsyncQueryService::SubmitTopK(NodeId seed, size_t k,
                                          const SubmitOptions& submit) {
  HKPR_CHECK(k > 0) << "top-k query needs k >= 1";
  return *Enqueue(seed, k, submit, /*try_submit=*/false);
}

std::optional<QueryHandle> AsyncQueryService::TrySubmit(
    NodeId seed, const SubmitOptions& submit) {
  return Enqueue(seed, 0, submit, /*try_submit=*/true);
}

std::optional<QueryHandle> AsyncQueryService::TrySubmitTopK(
    NodeId seed, size_t k, const SubmitOptions& submit) {
  HKPR_CHECK(k > 0) << "top-k query needs k >= 1";
  return Enqueue(seed, k, submit, /*try_submit=*/true);
}

size_t AsyncQueryService::StealInto(uint32_t thief, std::vector<Request>& batch,
                                    uint32_t max_batch) {
  const size_t num_shards = shards_.size();
  for (size_t hop = 1; hop < num_shards; ++hop) {
    Shard& victim = *shards_[(thief + hop) % num_shards];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.queue.empty()) continue;
    // Take the *older* half from the front: the thief serves the requests
    // that have waited longest, and the victim keeps the newer half (it
    // is presumably busy, or its own drain would have taken them).
    const size_t take =
        std::min<size_t>(max_batch, (victim.queue.size() + 1) / 2);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(victim.queue.front()));
      victim.queue.pop_front();
    }
    return take;
  }
  return 0;
}

void AsyncQueryService::WorkerLoop(uint32_t worker_id) {
  BoundExecutor& executor = executors_[worker_id];
  Shard& home = *shards_[worker_id];
  const uint32_t max_batch = std::max(1u, options_.max_batch);
  std::vector<Request> batch;
  std::vector<Deferred> deferred;
  batch.reserve(max_batch);
  // Set when this worker cleared a steal hint and no scan since has found
  // every other shard empty. A worker that takes other work first passes
  // the hint on, so the request behind the hint does not wait for it.
  bool owes_scan = false;
  for (;;) {
    batch.clear();
    deferred.clear();
    {
      // Opportunistic micro-batching: drain up to max_batch waiting
      // requests in one wakeup so a loaded worker answers them in a tight
      // loop on its warmed executor (the async analogue of the static
      // batch shard).
      std::lock_guard<std::mutex> lock(home.mu);
      const size_t take = std::min<size_t>(max_batch, home.queue.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(home.queue.front()));
        home.queue.pop_front();
      }
    }
    if (batch.empty()) {
      // stopping_ is set before the shutdown drain, and pending_ counts
      // every admitted-but-unprocessed request (including ones a raced
      // submitter has claimed but not yet pushed — those resolve under the
      // shard lock), so this exit condition cannot strand a future.
      if (stopping_.load() && pending_.load() == 0) return;
      // Park. The worker marks itself idle *before* its last scan of the
      // other shards: a push that the scan misses then sees an idle
      // worker and hints it (Enqueue), so no wakeup is lost and no timer
      // is needed for stealing.
      {
        std::lock_guard<std::mutex> lock(home.mu);
        home.idle = true;
      }
      idle_workers_.fetch_add(1);
      const size_t stolen =
          shards_.size() > 1 ? StealInto(worker_id, batch, max_batch) : 0;
      if (stolen == 0) owes_scan = false;  // every other shard was empty
      {
        std::unique_lock<std::mutex> lock(home.mu);
        if (stolen == 0) {
          home.cv.wait(lock, [&] {
            return stopping_.load() || !home.queue.empty() || home.steal_hint;
          });
        }
        owes_scan = owes_scan || home.steal_hint;
        home.idle = false;
        home.steal_hint = false;
      }
      idle_workers_.fetch_sub(1);
      if (stolen == 0) continue;
      stats_->RecordStolen(stolen);
    }
    if (owes_scan) {
      owes_scan = false;
      if (idle_workers_.load() > 0) HintIdleWorker(worker_id);
    }
    pending_.fetch_sub(batch.size());
    for (Request& request : batch) Process(executor, request, deferred);
    // Requests coalesced onto another worker's in-flight computation are
    // resolved last: the drained batch is this worker's private backlog,
    // so blocking on a leader mid-batch would stall unrelated requests
    // that no idle worker can steal back.
    for (Deferred& wait : deferred) {
      Fulfill(wait.request, wait.pending.get());
    }
  }
}

SparseVector AsyncQueryService::Compute(BoundExecutor& executor,
                                        const Request& request) {
  const ServedGraph& served = *request.graph;
  if (executor.version != served.snapshot.version) {
    // The first request this worker runs on another snapshot: rebind. The
    // request holds its snapshot, so the graph outlives this query.
    executor.executor = std::make_unique<QueryExecutor>(
        *served.snapshot.graph, params_, seed_, served.spec);
    executor.version = served.snapshot.version;
  }
  // The executor re-seeds the plan's backend from (engine seed, query
  // index), so every worker answers index i bit-identically to a
  // sequential executor, and a routed plan is bit-identical to directly
  // invoking its chosen backend at the same index. Deterministic backends
  // ignore the re-seed and the index plays no role.
  return executor.executor->Answer(request.seed, request.query_index,
                                   request.plan);
}

bool AsyncQueryService::ExpireIfLate(Request& request) {
  if (request.deadline == Clock::time_point::max() ||
      Clock::now() < request.deadline) {
    return false;
  }
  QueryResult result;
  result.status = QueryStatus::kExpired;
  stats_->RecordExpired();
  request.promise.set_value(std::move(result));
  return true;
}

void AsyncQueryService::Process(BoundExecutor& executor, Request& request,
                                std::vector<Deferred>& deferred) {
  request.trace.dequeue = Clock::now();
  if (request.cancelled->load(std::memory_order_relaxed)) {
    QueryResult result;
    result.status = QueryStatus::kCancelled;
    stats_->RecordCancelled();
    request.promise.set_value(std::move(result));
    return;
  }
  if (ExpireIfLate(request)) return;

  CachedEstimate estimate;
  if (cache_) {
    ResultCache::Lookup lookup = cache_->LookupOrStartCompute(request.key);
    request.trace.cache_done = Clock::now();
    switch (lookup.outcome) {
      case ResultCache::Outcome::kHit:
        request.cache_outcome = CacheOutcome::kHit;
        estimate = std::move(lookup.value);
        break;
      case ResultCache::Outcome::kInFlight:
        // Single-flight: another worker is computing this key. Park the
        // request for resolution after the rest of the batch; the leader
        // never waits on this key, so the eventual get() cannot deadlock.
        request.cache_outcome = CacheOutcome::kCoalesced;
        deferred.push_back(
            Deferred{std::move(request), std::move(lookup.pending)});
        return;
      case ResultCache::Outcome::kMiss:
        request.cache_outcome = CacheOutcome::kMiss;
        request.trace.compute_begin = Clock::now();
        estimate = std::make_shared<const SparseVector>(
            Compute(executor, request));
        request.trace.compute_end = Clock::now();
        cache_->Complete(request.key, lookup.leader, estimate);
        break;
    }
  } else {
    // No cache: the lookup stage is zero-width by definition.
    request.cache_outcome = CacheOutcome::kNone;
    request.trace.cache_done = request.trace.dequeue;
    request.trace.compute_begin = Clock::now();
    estimate =
        std::make_shared<const SparseVector>(Compute(executor, request));
    request.trace.compute_end = Clock::now();
  }
  Fulfill(request, std::move(estimate));
}

void AsyncQueryService::Fulfill(Request& request, CachedEstimate estimate) {
  QueryResult result;
  result.from_cache = request.cache_outcome == CacheOutcome::kHit ||
                      request.cache_outcome == CacheOutcome::kCoalesced;
  result.graph_version = request.graph->snapshot.version;
  result.backend = std::move(request.plan.backend);
  result.backend_id = request.plan.backend_id;
  if (request.k > 0) {
    result.top_k =
        TopKNormalized(*request.graph->snapshot.graph, *estimate, request.k);
  }
  result.estimate = std::move(estimate);
  result.status = QueryStatus::kOk;
  request.trace.complete = Clock::now();
  result.latency_ms = std::chrono::duration<double, std::milli>(
                          request.trace.complete - request.trace.submit)
                          .count();
  stats_->RecordCompleted(result.backend_id, request.cache_outcome,
                          request.trace);
  // Release the snapshot before the answer is handed over: once the last
  // query on a replaced snapshot has its answer, nothing here pins it.
  request.graph.reset();
  request.promise.set_value(std::move(result));
}

void AsyncQueryService::InvalidateCache() {
  if (cache_) cache_->Invalidate();
}

ServiceStatsSnapshot AsyncQueryService::Stats() const {
  ServiceStatsSnapshot snap = stats_->TakeSnapshot();
  snap.queue_depth = queue_depth();
  return snap;
}

size_t AsyncQueryService::queue_depth() const { return pending_.load(); }

uint64_t AsyncQueryService::queries_accepted() const {
  return next_query_index_.load();
}

}  // namespace hkpr
