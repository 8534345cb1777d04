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
         "(0, 1), delta in (0, 1], p_f in (0, 1))";
}

MultiGraphService::~MultiGraphService() {
  std::map<std::string, Served, std::less<>> graphs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    graphs.swap(graphs_);
  }
  // Drain everything before the map releases its references so every
  // handed-out future resolves.
  for (auto& [name, served] : graphs) {
    if (served.service != nullptr) served.service->Shutdown();
  }
}

uint32_t MultiGraphService::resolved_worker_budget() const {
  if (options_.worker_budget != 0) return options_.worker_budget;
  return std::max(1u, std::thread::hardware_concurrency());
}

std::shared_ptr<AsyncQueryService> MultiGraphService::BuildLocked(
    Served& served, GraphSnapshot snapshot) {
  ServiceOptions opts = options_.service;
  const size_t graphs = std::max<size_t>(1, store_.Size());
  opts.num_workers = std::max<uint32_t>(
      1, static_cast<uint32_t>(resolved_worker_budget() / graphs));
  if (served.stats == nullptr) served.stats = std::make_shared<ServiceStats>();
  served.service = std::make_shared<AsyncQueryService>(
      std::move(snapshot), params_, seed_, opts, served.stats);
  ApplyDefaultsLocked(served);
  return served.service;
}

void MultiGraphService::ApplyDefaultsLocked(const Served& served) {
  // Validated at SetGraphDefaults/SetDefaultBackend time, so these always
  // resolve; both are cheap, idempotent config stores — never drains or
  // builds.
  const PlanOverrides& defaults = served.defaults;
  served.service->SetDefaultBackend(defaults.backend.empty()
                                        ? options_.service.backend.name
                                        : defaults.backend);
  served.service->SetDefaultParams(ApplyParamOverrides(params_, defaults));
}

bool MultiGraphService::SetDefaultBackend(std::string_view backend) {
  if (backend != kAutoBackend &&
      !EstimatorRegistry::Global().Contains(backend)) {
    return false;
  }
  // Update the template and every live service under one hold of mu_:
  // racing config updates serialize — last writer wins for both.
  std::lock_guard<std::mutex> lock(mu_);
  options_.service.backend.name = std::string(backend);
  // A service-wide switch means *every* graph: drop per-graph backend
  // pins (parameter overrides keep applying on top of the new backend).
  for (auto& [name, served] : graphs_) {
    served.defaults.backend.clear();
    if (served.service != nullptr) served.service->SetDefaultBackend(backend);
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
  Served& served = graphs_[std::string(graph)];
  served.defaults = defaults;
  if (served.service != nullptr) ApplyDefaultsLocked(served);
  return true;
}

PlanOverrides MultiGraphService::GraphDefaults(std::string_view graph) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(graph);
  return it != graphs_.end() ? it->second.defaults : PlanOverrides{};
}

std::string MultiGraphService::default_backend() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.service.backend.name;
}

std::shared_ptr<AsyncQueryService> MultiGraphService::ServiceFor(
    std::string_view name) {
  std::shared_ptr<AsyncQueryService> removed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    GraphSnapshot snapshot = store_.Get(name);
    auto it = graphs_.find(name);
    if (snapshot) {
      Served& served = it != graphs_.end()
                           ? it->second
                           : graphs_[std::string(name)];
      // A service shut down by hand is gone for good: build another,
      // recording into the same stats block.
      if (served.service == nullptr || served.service->stopped()) {
        return BuildLocked(served, std::move(snapshot));
      }
      // Published directly on the store; no-op when already current.
      served.service->SetSnapshot(std::move(snapshot));
      return served.service;
    }
    // Removed directly on the store: release the service as Drop does.
    if (it != graphs_.end()) removed = std::move(it->second.service);
  }
  if (removed != nullptr) removed->Shutdown();
  return nullptr;
}

size_t MultiGraphService::QueueDepth(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end() || it->second.service == nullptr) return 0;
  return it->second.service->queue_depth();
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
  // Resolve (short registry lock), then enqueue with no lock held.
  // TrySubmit* returns nullopt when a Drop() stopped the service, or a
  // republish shrank the graph below `seed`, after the resolve: the loop
  // resolves again. Each retry implies the store moved, so the loop
  // terminates with the publish traffic.
  for (;;) {
    std::shared_ptr<AsyncQueryService> service = ServiceFor(graph);
    if (service == nullptr) return ErrorHandle(QueryStatus::kUnknownGraph);
    // Out-of-range seeds are reported, never check-failed.
    if (seed >= service->snapshot().graph->NumNodes()) {
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
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  // A live service takes the store's current snapshot (a racing Publish
  // may already have moved it further); an unserved graph stays lazy.
  if (it != graphs_.end() && it->second.service != nullptr) {
    if (GraphSnapshot snapshot = store_.Get(name)) {
      it->second.service->SetSnapshot(std::move(snapshot));
    }
  }
  return version;
}

bool MultiGraphService::Drop(std::string_view name) {
  bool existed;
  std::shared_ptr<AsyncQueryService> service;
  {
    // Remove from store and registry under one lock: a concurrent
    // resolution either ran before — its service is drained below — or
    // runs after and sees the store miss. Lock order is always mu_ ->
    // store lock (Publish never holds the store lock while taking mu_).
    std::lock_guard<std::mutex> lock(mu_);
    existed = store_.Remove(name);
    auto it = graphs_.find(name);
    if (it != graphs_.end()) {
      service = std::move(it->second.service);
      // A dropped graph's plan overrides die with it: a later graph of the
      // same name starts from the service-wide template. Its stats stay.
      it->second.defaults = {};
      if (it->second.stats == nullptr) graphs_.erase(it);
    }
  }
  // Graceful drain, synchronously: every future already handed out for
  // this graph resolves before Drop returns.
  if (service != nullptr) service->Shutdown();
  return existed;
}

ServiceStatsSnapshot MultiGraphService::StatsFor(
    std::string_view name) const {
  std::shared_ptr<AsyncQueryService> service;
  std::shared_ptr<ServiceStats> stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(name);
    if (it == graphs_.end()) return {};
    service = it->second.service;
    stats = it->second.stats;
  }
  if (service != nullptr) return service->Stats();
  return stats != nullptr ? stats->TakeSnapshot() : ServiceStatsSnapshot{};
}

ServiceStatsSnapshot MultiGraphService::AggregateStats() const {
  ServiceStatsSnapshot total;
  for (const std::string& name : StatsScopes()) {
    MergeSnapshot(total, StatsFor(name));
  }
  return total;
}

std::vector<std::string> MultiGraphService::StatsScopes() const {
  std::vector<std::string> scopes = store_.Names();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, served] : graphs_) {
      if (served.stats != nullptr) scopes.push_back(name);
    }
  }
  std::sort(scopes.begin(), scopes.end());
  scopes.erase(std::unique(scopes.begin(), scopes.end()), scopes.end());
  return scopes;
}

void MultiGraphService::InvalidateCaches() {
  std::vector<std::shared_ptr<AsyncQueryService>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, served] : graphs_) {
      if (served.service != nullptr) live.push_back(served.service);
    }
  }
  for (const auto& service : live) service->InvalidateCache();
}

}  // namespace hkpr
