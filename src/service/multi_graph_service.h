// Sharded multi-graph serving frontend.
//
// One process, many graphs: MultiGraphService shards requests by graph
// name onto per-graph AsyncQueryService instances, each serving the
// current GraphSnapshot of its name in a GraphStore. A graph's service is
// built under the registry lock on the graph's first query and kept until
// the graph is dropped. Services share a worker budget: each is sized to
// max(1, budget / graphs-in-store) workers when it is built and keeps that
// size until its graph is dropped, so the live total can exceed the budget
// after new graphs are loaded next to long-lived services.
//
// Hot-swap: Publish() installs a new snapshot in the store and hands it to
// the graph's service, if one is live, as a live config update
// (AsyncQueryService::SetSnapshot): no thread is started, joined or
// drained. In-flight and queued queries finish on the snapshot they were
// admitted against (their results carry its version); queries submitted
// after Publish returns run on the new one. Cache keys carry the snapshot
// version, so a pre-swap cached estimate can never be returned for a
// post-swap query.
//
// Stats: each graph name owns one ServiceStats block that every service
// built for the name records into, so StatsFor() is cumulative across
// republishes, a service rebuilt after a Shutdown() by hand, and Drop().
//
// Removal: Drop() takes the graph out of the store and synchronously
// drains its service (every queued future resolves before Drop returns).
// Queries for unknown or dropped graphs complete immediately with
// QueryStatus::kUnknownGraph — never a silent fallback to another graph.
//
// Self-healing: the store is the source of truth. If a snapshot is
// published or removed directly on the store, the next resolution of the
// graph hands the service the new snapshot (or drains it).
//
// Plans: every request resolves to a per-query QueryPlan inside its
// graph's AsyncQueryService (request overrides > per-graph defaults >
// service-wide template; "auto" routes adaptively). SetDefaultBackend()
// and SetGraphDefaults() are live config updates — no drain, no rebuild —
// and a graph's defaults apply to its service until the graph is dropped.

#ifndef HKPR_SERVICE_MULTI_GRAPH_SERVICE_H_
#define HKPR_SERVICE_MULTI_GRAPH_SERVICE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hkpr/params.h"
#include "service/async_query_service.h"
#include "service/graph_store.h"

namespace hkpr {

/// Multi-graph serving configuration.
struct MultiGraphOptions {
  /// Total worker threads budgeted across the per-graph services; each
  /// service is built with max(1, budget / graphs-in-store) workers and
  /// keeps that size until its graph is dropped, so the live total tracks
  /// the budget approximately, not as a hard cap. 0 uses all hardware
  /// threads.
  uint32_t worker_budget = 0;
  /// Template for every per-graph service (cache, queue depth, backend,
  /// micro-batching). `service.num_workers` is ignored — the budget above
  /// decides worker counts.
  ServiceOptions service;
};

/// The sharded frontend. All public methods are thread-safe. The store
/// must outlive the service; the destructor drains every per-graph
/// service.
class MultiGraphService {
 public:
  MultiGraphService(GraphStore& store, const ApproxParams& params,
                    uint64_t seed, const MultiGraphOptions& options = {});
  ~MultiGraphService();

  MultiGraphService(const MultiGraphService&) = delete;
  MultiGraphService& operator=(const MultiGraphService&) = delete;

  /// Enqueues a full-vector HKPR query for `seed` on graph `graph`.
  /// Unknown graphs complete immediately with kUnknownGraph; a seed out
  /// of range for the graph's current snapshot (a racy condition under
  /// hot-swap, so validated here against the resolved snapshot, never
  /// check-failed) completes with kInvalidArgument.
  QueryHandle Submit(std::string_view graph, NodeId seed,
                     const SubmitOptions& submit = {});

  /// Enqueues a top-k proximity query on graph `graph`. k == 0 completes
  /// with kInvalidArgument (same report-don't-abort policy as the seed).
  QueryHandle SubmitTopK(std::string_view graph, NodeId seed, size_t k,
                         const SubmitOptions& submit = {});

  /// Publishes a new snapshot of `name` into the store and hands it to
  /// the graph's service if one is live (lazy otherwise). Returns the new
  /// store version. Queries admitted before the swap finish on the old
  /// snapshot.
  uint64_t Publish(std::string_view name, Graph graph);

  /// Removes `name` from the store and synchronously drains its service;
  /// every already-submitted future resolves before this returns. The
  /// graph's stats survive in StatsFor(). Returns false if the store did
  /// not contain `name`.
  bool Drop(std::string_view name);

  /// The per-graph service for `name`, built on first use from the store's
  /// current snapshot (and handed a newer snapshot published directly on
  /// the store). The same object until `name` is dropped or the service is
  /// shut down by hand. Null when the store has no such graph.
  std::shared_ptr<AsyncQueryService> ServiceFor(std::string_view name);

  /// Requests waiting in `name`'s service; 0 when no service exists yet.
  /// Never builds one.
  size_t QueueDepth(std::string_view name) const;

  /// Switches the default backend of *every* graph — a registered name or
  /// "auto" — as a live config update: no drain, no rebuild, queued
  /// requests keep their plans. Clears any per-graph backend overrides
  /// (their parameter overrides survive) so the switch actually applies
  /// everywhere. Returns false for unknown names.
  bool SetDefaultBackend(std::string_view backend);

  /// Sets `graph`'s default plan: an optional backend (registry name or
  /// "auto") and/or parameter overrides composed onto the service-wide
  /// ApproxParams. Applied to the live service immediately (no drain), and
  /// to a service built later, until the graph is dropped; republishes
  /// keep them. An empty `defaults` restores the service-wide template.
  /// Returns false when the store has no such graph, the backend name is
  /// unknown, or the composed params are out of range (see ServableParams).
  bool SetGraphDefaults(std::string_view graph, const PlanOverrides& defaults);

  /// The overrides last set for `graph` (empty when none).
  PlanOverrides GraphDefaults(std::string_view graph) const;

  /// The service-wide default backend name ("tea+", ..., or "auto").
  std::string default_backend() const;

  /// Cumulative per-graph stats: the graph's one stats block, across every
  /// republish and drop of `name`, plus its live service's queue depth.
  /// The per-backend rows are the (graph, backend) dimensions of the
  /// server's Prometheus-style `metrics` output; totals and rows come from
  /// one snapshot of the block, so the two always agree.
  ServiceStatsSnapshot StatsFor(std::string_view name) const;

  /// Totals summed over every graph ever served, with percentiles over
  /// the merged buckets; queue_depth sums live queues.
  ServiceStatsSnapshot AggregateStats() const;

  /// Every graph name with observable history: currently in the store, or
  /// served once and dropped since. The scope list the server's `metrics`
  /// and `stats` commands iterate.
  std::vector<std::string> StatsScopes() const;

  /// Drops every live per-graph cache's entries.
  void InvalidateCaches();

  /// Store listing passthrough (name, version, size per graph).
  std::vector<GraphInfo> List() const { return store_.List(); }

  GraphStore& store() { return store_; }
  /// The construction-time options template. The *current* default
  /// backend is mutable config — read it via default_backend(), not here.
  const MultiGraphOptions& options() const { return options_; }

  /// The worker budget after defaulting (0 -> all hardware threads) — the
  /// value divided among the per-graph services.
  uint32_t resolved_worker_budget() const;

  /// Submissions refused because the named graph was unknown. These never
  /// reach a per-graph service, so they appear here, not in StatsFor().
  uint64_t unknown_graph_rejects() const {
    return unknown_graph_rejects_.load(std::memory_order_relaxed);
  }

  /// Submissions refused as malformed (stale/out-of-range seed, k == 0);
  /// like unknown-graph rejects, counted service-wide.
  uint64_t invalid_argument_rejects() const {
    return invalid_argument_rejects_.load(std::memory_order_relaxed);
  }

 private:
  /// What the service keeps per graph name.
  struct Served {
    /// Built on the graph's first query, kept across republishes, released
    /// by Drop. Null before the first query and after a drop.
    std::shared_ptr<AsyncQueryService> service;
    /// The SetGraphDefaults overrides; cleared by Drop.
    PlanOverrides defaults;
    /// The name's stats block, made with its first service and shared by
    /// every later one; kept after Drop.
    std::shared_ptr<ServiceStats> stats;
  };

  /// Builds `name`'s service on `snapshot` with the worker share, the
  /// template options and the graph's defaults. Runs under mu_.
  std::shared_ptr<AsyncQueryService> BuildLocked(Served& served,
                                                 GraphSnapshot snapshot);

  /// Applies `served`'s plan defaults (and the template backend) to its
  /// service. Runs under mu_, so an apply can never interleave with a
  /// concurrent SetDefaultBackend/SetGraphDefaults and revert its newer
  /// config. Lock order: mu_ -> the service's config lock.
  void ApplyDefaultsLocked(const Served& served);

  /// The resolve-then-enqueue loop shared by Submit and SubmitTopK.
  /// `enqueue` (a TrySubmit* wrapper) runs with NO registry lock held —
  /// submissions to different graphs never serialize on mu_. A service
  /// stopped by a concurrent Drop() returns nullopt, and the loop resolves
  /// the graph again (and reports kUnknownGraph after a drop) — an
  /// accepted (enqueued) query is never bounced.
  QueryHandle SubmitImpl(
      std::string_view graph, NodeId seed,
      const std::function<std::optional<QueryHandle>(AsyncQueryService&)>&
          enqueue);

  /// An immediately-resolved handle carrying `status` (kUnknownGraph
  /// bumps the reject counter).
  QueryHandle ErrorHandle(QueryStatus status);

  GraphStore& store_;
  ApproxParams params_;
  uint64_t seed_;
  MultiGraphOptions options_;
  std::atomic<uint64_t> unknown_graph_rejects_{0};
  std::atomic<uint64_t> invalid_argument_rejects_{0};

  mutable std::mutex mu_;
  std::map<std::string, Served, std::less<>> graphs_;
};

}  // namespace hkpr

#endif  // HKPR_SERVICE_MULTI_GRAPH_SERVICE_H_
