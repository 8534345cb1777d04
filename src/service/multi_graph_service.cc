#include "service/multi_graph_service.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace hkpr {

MultiGraphService::MultiGraphService(GraphStore& store,
                                     const ApproxParams& params, uint64_t seed,
                                     const MultiGraphOptions& options)
    : store_(store), params_(params), seed_(seed), options_(options) {
  // Same fail-at-startup contract as AsyncQueryService: plan resolution
  // reports out-of-range params instead of aborting, so the defaults must
  // be validated before any request can reach it.
  HKPR_CHECK(ServableParams(params_))
      << "service ApproxParams out of range (t in (0, 700], eps_r in "
         "(0, 1), delta > 0, p_f in (0, 1))";
}

MultiGraphService::~MultiGraphService() {
  std::map<std::string, std::shared_ptr<AsyncQueryService>, std::less<>>
      services;
  {
    std::lock_guard<std::mutex> lock(mu_);
    services.swap(services_);
  }
  // Drain everything before the map releases its references so every
  // handed-out future resolves. No stats fold here: the accumulators die
  // with the object, so there is nothing left to read them.
  for (auto& [name, service] : services) service->Shutdown();
}

uint32_t MultiGraphService::resolved_worker_budget() const {
  if (options_.worker_budget != 0) return options_.worker_budget;
  return std::max(1u, std::thread::hardware_concurrency());
}

std::shared_ptr<AsyncQueryService> MultiGraphService::BuildService(
    std::string_view name, GraphSnapshot snapshot) {
  ServiceOptions opts;
  {
    // The template's backend is mutable config (SetDefaultBackend); copy
    // it under the lock, build outside it.
    std::lock_guard<std::mutex> lock(mu_);
    opts = options_.service;
  }
  const uint32_t budget = resolved_worker_budget();
  const size_t graphs = std::max<size_t>(1, store_.Size());
  opts.num_workers =
      std::max<uint32_t>(1, static_cast<uint32_t>(budget / graphs));
  auto service = std::make_shared<AsyncQueryService>(std::move(snapshot),
                                                     params_, seed_, opts);
  // Apply the graph's plan defaults on every (re)build, so overrides
  // survive hot-swaps and lazy rebuilds. Re-applied again post-install
  // (see ApplyCurrentDefaults) to close the race with concurrent config
  // updates.
  ApplyCurrentDefaults(name, *service);
  return service;
}

void MultiGraphService::ApplyCurrentDefaults(std::string_view name,
                                             AsyncQueryService& service) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyDefaultsLocked(name, service);
}

void MultiGraphService::ApplyDefaultsLocked(std::string_view name,
                                            AsyncQueryService& service) {
  // Read AND apply under one hold of mu_, so an apply can never
  // interleave with a concurrent SetDefaultBackend/SetGraphDefaults and
  // revert its newer config: every path that touches a live service's
  // defaults holds mu_ across both the map read and the apply. The
  // applies are cheap config stores (the service's own config mutex) —
  // never drains or builds — and the lock order is uniformly
  // MultiGraphService::mu_ -> AsyncQueryService::config_mu_.
  PlanOverrides defaults;
  auto it = graph_defaults_.find(name);
  if (it != graph_defaults_.end()) defaults = it->second;
  const std::string& template_backend = options_.service.backend.name;
  // Validated at SetGraphDefaults/SetDefaultBackend time, so these always
  // resolve; both are idempotent no-drain config updates.
  service.SetDefaultBackend(defaults.backend.empty() ? template_backend
                                                     : defaults.backend);
  service.SetDefaultParams(ApplyParamOverrides(params_, defaults));
}

bool MultiGraphService::SetDefaultBackend(std::string_view backend) {
  if (backend != kAutoBackend &&
      !EstimatorRegistry::Global().Contains(backend)) {
    return false;
  }
  // Update the template and every live service under one hold of mu_
  // (see ApplyDefaultsLocked for why): racing config updates then
  // serialize cleanly — last writer wins for both the map and the
  // services. The per-service call is a cheap config store, no drain.
  std::lock_guard<std::mutex> lock(mu_);
  options_.service.backend.name = std::string(backend);
  // A service-wide switch means *every* graph: drop per-graph backend
  // pins (parameter overrides keep applying on top of the new backend).
  for (auto& [graph, defaults] : graph_defaults_) defaults.backend.clear();
  for (const auto& [graph, service] : services_) {
    service->SetDefaultBackend(backend);
  }
  return true;
}

bool MultiGraphService::SetGraphDefaults(std::string_view graph,
                                         const PlanOverrides& defaults) {
  if (!defaults.backend.empty() && defaults.backend != kAutoBackend &&
      !EstimatorRegistry::Global().Contains(defaults.backend)) {
    return false;
  }
  // Defaults come from external input on the server's `params` path:
  // out-of-range values are refused here, never allowed to check-fail a
  // lazily built estimator later.
  if (!ServableParams(ApplyParamOverrides(params_, defaults))) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!store_.Contains(graph)) return false;
  graph_defaults_[std::string(graph)] = defaults;
  auto it = services_.find(graph);
  // Live config update, no drain, atomic with the map write (mu_ held
  // across both — see ApplyDefaultsLocked).
  if (it != services_.end()) ApplyDefaultsLocked(graph, *it->second);
  return true;
}

PlanOverrides MultiGraphService::GraphDefaults(std::string_view graph) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graph_defaults_.find(graph);
  return it != graph_defaults_.end() ? it->second : PlanOverrides{};
}

std::string MultiGraphService::default_backend() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.service.backend.name;
}

void MultiGraphService::RetireLocked(
    std::string_view name, std::shared_ptr<AsyncQueryService> service) {
  retiring_[std::string(name)].push_back(std::move(service));
}

void MultiGraphService::FinishRetire(
    std::string_view name,
    const std::shared_ptr<AsyncQueryService>& service) {
  // Drain outside mu_ (can take a while with a deep queue); the counters
  // are final once the workers have joined.
  service->Shutdown();
  const ServiceStatsSnapshot final_stats = service->Stats();
  std::lock_guard<std::mutex> lock(mu_);
  // Fold and unpark in one critical section, so a stats reader sees this
  // service's history in exactly one of `retiring_` / `retired_stats_`.
  MergeSnapshot(retired_stats_[std::string(name)], final_stats);
  auto it = retiring_.find(name);
  if (it != retiring_.end()) {
    std::vector<std::shared_ptr<AsyncQueryService>>& draining = it->second;
    draining.erase(std::remove(draining.begin(), draining.end(), service),
                   draining.end());
    if (draining.empty()) retiring_.erase(it);
  }
}

MultiGraphService::Resolution MultiGraphService::TryResolveLocked(
    std::string_view name, std::shared_ptr<AsyncQueryService>* retired) {
  Resolution resolution;
  GraphSnapshot snapshot = store_.Get(name);
  auto it = services_.find(name);
  if (!snapshot) {
    // Dropped (or never published): retire any stale service so queries
    // cannot silently keep answering on a removed graph.
    if (it != services_.end()) {
      *retired = it->second;
      RetireLocked(name, std::move(it->second));
      services_.erase(it);
    }
    resolution.unknown = true;
    return resolution;
  }
  if (it != services_.end() &&
      it->second->graph_version() == snapshot.version) {
    if (!it->second->stopped()) {
      resolution.service = it->second;
      return resolution;
    }
    // Shut down externally (ServiceFor + Shutdown()) while still
    // installed: retire it and rebuild, or SubmitImpl's retry loop would
    // re-resolve the same dead service forever.
    *retired = it->second;
    RetireLocked(name, std::move(it->second));
    services_.erase(it);
  }
  // First query for this graph, the store moved to a newer snapshot, or
  // the installed service was stopped: the caller builds on this
  // snapshot outside the lock.
  resolution.to_build = std::move(snapshot);
  return resolution;
}

std::shared_ptr<AsyncQueryService> MultiGraphService::InstallLocked(
    std::string_view name, const std::shared_ptr<AsyncQueryService>& fresh,
    std::shared_ptr<AsyncQueryService>* retired) {
  const GraphSnapshot current = store_.Get(name);
  if (!current) {
    // Removed mid-build; retire any stale service, discard the build.
    auto it = services_.find(name);
    if (it != services_.end()) {
      *retired = it->second;
      RetireLocked(name, std::move(it->second));
      services_.erase(it);
    }
    return nullptr;
  }
  auto it = services_.find(name);
  if (it != services_.end() &&
      it->second->graph_version() == current.version &&
      !it->second->stopped()) {
    return it->second;  // a racing builder installed this version first
  }
  if (fresh->graph_version() != current.version) {
    return nullptr;  // republished mid-build; caller re-resolves
  }
  // Replace whatever is installed: an older version, or a same-version
  // service that was externally shut down.
  if (it != services_.end()) {
    *retired = it->second;
    RetireLocked(name, std::move(it->second));
    it->second = fresh;
  } else {
    services_.emplace(std::string(name), fresh);
  }
  return fresh;
}

std::shared_ptr<AsyncQueryService> MultiGraphService::ServiceFor(
    std::string_view name) {
  for (;;) {
    std::shared_ptr<AsyncQueryService> retired;
    Resolution resolution;
    {
      std::lock_guard<std::mutex> lock(mu_);
      resolution = TryResolveLocked(name, &retired);
    }
    // Drain + fold the swapped-out service with no lock held, so a
    // hot-swap never stalls submissions to other graphs.
    if (retired != nullptr) FinishRetire(name, retired);
    if (resolution.unknown) return nullptr;
    if (resolution.service != nullptr) return resolution.service;

    // The expensive part — estimator + worker construction — also runs
    // with no lock held.
    std::shared_ptr<AsyncQueryService> fresh =
        BuildService(name, std::move(resolution.to_build));
    std::shared_ptr<AsyncQueryService> replaced;
    std::shared_ptr<AsyncQueryService> installed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      installed = InstallLocked(name, fresh, &replaced);
    }
    if (replaced != nullptr) FinishRetire(name, replaced);
    if (installed != nullptr) {
      // A SetGraphDefaults/SetDefaultBackend that ran between the
      // BuildService-time apply and the install would otherwise be lost
      // (it saw no live service to update). Re-applying after install
      // reads the map at or after any such update, so the installed
      // service converges to the latest defaults.
      ApplyCurrentDefaults(name, *installed);
      return installed;
    }
    // The store moved on mid-build: discard the stale build (it never
    // served a query) and re-resolve.
  }
}

QueryHandle MultiGraphService::ErrorHandle(QueryStatus status) {
  if (status == QueryStatus::kUnknownGraph) {
    unknown_graph_rejects_.fetch_add(1, std::memory_order_relaxed);
  } else if (status == QueryStatus::kInvalidArgument) {
    invalid_argument_rejects_.fetch_add(1, std::memory_order_relaxed);
  }
  QueryHandle handle;
  std::promise<QueryResult> promise;
  handle.result = promise.get_future();
  QueryResult result;
  result.status = status;
  promise.set_value(std::move(result));
  return handle;
}

QueryHandle MultiGraphService::SubmitImpl(
    std::string_view graph, NodeId seed,
    const std::function<std::optional<QueryHandle>(AsyncQueryService&)>&
        enqueue) {
  // Resolve (short registry lock), then enqueue with no lock held: the
  // resolved service's snapshot is immutable, so the seed check needs no
  // lock, and TrySubmit* returns nullopt if a Publish()/Drop() drained
  // the service between resolve and enqueue — we then re-resolve onto the
  // replacement. Each retry implies the store moved, so the loop
  // terminates with the publish traffic.
  for (;;) {
    std::shared_ptr<AsyncQueryService> service = ServiceFor(graph);
    if (service == nullptr) return ErrorHandle(QueryStatus::kUnknownGraph);
    // Validated against the resolved snapshot — out-of-range seeds are
    // reported, never check-failed. A swap between this check and the
    // enqueue surfaces as nullopt and re-validates on the new snapshot.
    if (seed >= service->graph().NumNodes()) {
      return ErrorHandle(QueryStatus::kInvalidArgument);
    }
    std::optional<QueryHandle> handle = enqueue(*service);
    if (handle.has_value()) return std::move(*handle);
  }
}

QueryHandle MultiGraphService::Submit(std::string_view graph, NodeId seed,
                                      const SubmitOptions& submit) {
  return SubmitImpl(graph, seed, [&](AsyncQueryService& service) {
    return service.TrySubmit(seed, submit);
  });
}

QueryHandle MultiGraphService::SubmitTopK(std::string_view graph, NodeId seed,
                                          size_t k,
                                          const SubmitOptions& submit) {
  // Same report-don't-check-fail policy as the seed range: k is external
  // input on this path, so a malformed request must not abort the process
  // serving every graph.
  if (k == 0) return ErrorHandle(QueryStatus::kInvalidArgument);
  return SubmitImpl(graph, seed, [&](AsyncQueryService& service) {
    return service.TrySubmitTopK(seed, k, submit);
  });
}

uint64_t MultiGraphService::Publish(std::string_view name, Graph graph) {
  const uint64_t version = store_.Publish(name, std::move(graph));
  bool live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live = services_.find(name) != services_.end();
  }
  // Hot-swap eagerly only if the graph is already being served (the
  // standard resolve/build/install path, build outside the lock);
  // otherwise stay lazy and let the first query build on the new
  // snapshot.
  if (live) ServiceFor(name);
  return version;
}

bool MultiGraphService::Drop(std::string_view name) {
  bool existed;
  std::shared_ptr<AsyncQueryService> service;
  {
    // Remove from store and registry under one lock: a concurrent Submit
    // (whose resolve also takes mu_) either ran before — its service is
    // in the map and we drain it below — or runs after and sees the store
    // miss. The service can therefore never be spirited away into a
    // submitter's retire path mid-drop, which would let Drop return
    // before the drain. Lock order is always mu_ -> store lock (Publish
    // never holds the store lock while taking mu_), so nesting is safe.
    std::lock_guard<std::mutex> lock(mu_);
    existed = store_.Remove(name);
    auto it = services_.find(name);
    if (it != services_.end()) {
      service = it->second;
      RetireLocked(name, std::move(it->second));
      services_.erase(it);
    }
    // A dropped graph's plan overrides die with it: a later graph of the
    // same name starts from the service-wide template.
    auto defaults_it = graph_defaults_.find(name);
    if (defaults_it != graph_defaults_.end()) {
      graph_defaults_.erase(defaults_it);
    }
  }
  // Graceful drain, synchronously: every future already handed out for
  // this graph resolves — and the final counters are folded — before
  // Drop returns.
  if (service != nullptr) FinishRetire(name, service);
  return existed;
}

ServiceStatsSnapshot MultiGraphService::StatsFor(
    std::string_view name) const {
  std::shared_ptr<AsyncQueryService> live;
  std::vector<std::shared_ptr<AsyncQueryService>> draining;
  ServiceStatsSnapshot total;
  {
    // One critical section snapshots all three homes a service's history
    // can live in (live map, retiring list, folded totals), so every
    // query is counted exactly once and counters never dip mid-drain.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = services_.find(name);
    if (it != services_.end()) live = it->second;
    auto retiring_it = retiring_.find(name);
    if (retiring_it != retiring_.end()) draining = retiring_it->second;
    auto folded = retired_stats_.find(name);
    if (folded != retired_stats_.end()) total = folded->second;
  }
  // Totals, rows and percentiles over the graph's whole history (live +
  // draining + every folded incarnation), from the merged snapshots.
  if (live != nullptr) MergeSnapshot(total, live->Stats());
  for (const auto& service : draining) MergeSnapshot(total, service->Stats());
  return total;
}

ServiceStatsSnapshot MultiGraphService::AggregateStats() const {
  std::vector<std::shared_ptr<AsyncQueryService>> counting;
  ServiceStatsSnapshot total;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counting.reserve(services_.size());
    for (const auto& [name, service] : services_) counting.push_back(service);
    for (const auto& [name, draining] : retiring_) {
      for (const auto& service : draining) counting.push_back(service);
    }
    for (const auto& [name, snap] : retired_stats_) MergeSnapshot(total, snap);
  }
  for (const auto& service : counting) MergeSnapshot(total, service->Stats());
  return total;
}

std::vector<std::string> MultiGraphService::StatsScopes() const {
  std::vector<std::string> scopes;
  for (const GraphInfo& info : store_.List()) scopes.push_back(info.name);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, snap] : retired_stats_) {
    if (std::find(scopes.begin(), scopes.end(), name) == scopes.end()) {
      scopes.push_back(name);
    }
  }
  std::sort(scopes.begin(), scopes.end());
  return scopes;
}

void MultiGraphService::InvalidateCaches() {
  std::vector<std::shared_ptr<AsyncQueryService>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.reserve(services_.size());
    for (const auto& [name, service] : services_) live.push_back(service);
  }
  for (const auto& service : live) service->InvalidateCache();
}

}  // namespace hkpr
