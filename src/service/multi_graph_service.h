// Sharded multi-graph serving frontend.
//
// One process, many graphs: MultiGraphService shards requests by graph
// name onto per-graph AsyncQueryService instances, each serving one
// immutable GraphSnapshot from a GraphStore. Per-graph services are
// constructed lazily — the first query (or publish-over-existing) for a
// graph pays the estimator build, later ones reuse it — and share a
// worker budget: each service is sized to max(1, budget / graphs-in-store)
// workers *at build time* and keeps that size until its graph is
// republished (a rebalance-on-load would wipe the per-graph caches), so
// the live total can temporarily exceed the budget after new graphs are
// loaded next to long-lived services. Builds run *outside* the registry
// lock (only the
// resolve/install steps lock), so standing up one graph's service never
// stalls submissions to the others; when two threads race to build the
// same snapshot, one service wins the install and the loser is quietly
// discarded.
//
// Hot-swap: Publish() installs a new snapshot in the store and, if the
// graph is already being served, atomically replaces its service with one
// built on the new snapshot. The old service keeps its snapshot reference
// and drains — in-flight queries finish on the graph version they were
// submitted against (their results carry that version) — while staying
// visible to the stats readers as "retiring"; once drained, its final
// counters are folded into the per-graph retired stats in the same
// critical section that unparks it, so StatsFor() is cumulative across
// any number of swaps and never transiently dips mid-drain.
// Because a replaced service's cache dies with it and live cache keys
// embed the snapshot version, a pre-swap cached estimate can never be
// returned for a post-swap query.
//
// Removal: Drop() takes the graph out of the store and synchronously
// drains its service (every queued future resolves before Drop returns).
// Queries for unknown or dropped graphs complete immediately with
// QueryStatus::kUnknownGraph — never a silent fallback to another graph.
//
// Self-healing: the store is the source of truth. If a snapshot is
// published or removed directly on the store, the next Submit() notices
// the version mismatch and swaps (or retires) the service on the spot.
//
// Plans: every request resolves to a per-query QueryPlan inside its
// graph's AsyncQueryService (request overrides > per-graph defaults >
// service-wide template; "auto" routes adaptively). SetDefaultBackend()
// and SetGraphDefaults() are live config updates — no drain, no rebuild —
// and per-graph defaults are re-applied whenever a graph's service is
// rebuilt, so they survive hot-swaps.

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
  /// keeps that size until its graph is republished, so the live total
  /// tracks the budget approximately, not as a hard cap. 0 uses all
  /// hardware threads.
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

  /// Publishes a new snapshot of `name` into the store and hot-swaps the
  /// per-graph service if one is live (lazy otherwise). Returns the new
  /// store version. In-flight queries drain on the old snapshot.
  uint64_t Publish(std::string_view name, Graph graph);

  /// Removes `name` from the store and synchronously drains its service;
  /// every already-submitted future resolves before this returns, and the
  /// drained service's counters are folded into the retired stats.
  /// Returns false if the store did not contain `name`.
  bool Drop(std::string_view name);

  /// The per-graph service for `name`, lazily constructing (or hot-swap
  /// refreshing) it from the store's current snapshot. Null when the store
  /// has no such graph. The returned pointer stays valid while held, even
  /// across a concurrent Publish()/Drop().
  std::shared_ptr<AsyncQueryService> ServiceFor(std::string_view name);

  /// Switches the default backend of *every* graph — a registered name or
  /// "auto" — as a live config update: no drain, no rebuild, queued
  /// requests keep their plans. Clears any per-graph backend overrides
  /// (their parameter overrides survive) so the switch actually applies
  /// everywhere. Returns false for unknown names.
  bool SetDefaultBackend(std::string_view backend);

  /// Sets `graph`'s default plan: an optional backend (registry name or
  /// "auto") and/or parameter overrides composed onto the service-wide
  /// ApproxParams. Applied to the live service immediately (no drain) and
  /// re-applied every time the graph's service is rebuilt (hot-swap,
  /// lazy build), so overrides survive republishes. An empty `defaults`
  /// restores the service-wide template. Returns false when the store has
  /// no such graph, the backend name is unknown, or the composed params
  /// are out of range (see ServableParams).
  bool SetGraphDefaults(std::string_view graph, const PlanOverrides& defaults);

  /// The overrides last set for `graph` (empty when none).
  PlanOverrides GraphDefaults(std::string_view graph) const;

  /// The service-wide default backend name ("tea+", ..., or "auto").
  std::string default_backend() const;

  /// Cumulative per-graph stats: retired services' totals (across every
  /// hot-swap and drop of `name`) plus the live and still-draining
  /// services', with latency percentiles recomputed from the merged
  /// histogram buckets — they cover the graph's whole history. The
  /// per-backend rows, merged by backend id, are the (graph, backend)
  /// dimensions of the server's Prometheus-style `metrics` output; each
  /// service contributes totals and rows from one snapshot, so the two
  /// always agree. Queue depth sums the live and draining queues.
  ServiceStatsSnapshot StatsFor(std::string_view name) const;

  /// Totals summed over every graph ever served (live + retired), with
  /// percentiles over the merged buckets; queue_depth sums live queues.
  ServiceStatsSnapshot AggregateStats() const;

  /// Every graph name with observable history: currently in the store,
  /// still draining, or with folded retired stats. The scope list the
  /// server's `metrics` and `stats` commands iterate.
  std::vector<std::string> StatsScopes() const;

  /// Drops every live per-graph cache (entries only; versions advance).
  void InvalidateCaches();

  /// Store listing passthrough (name, version, size per graph).
  std::vector<GraphInfo> List() const { return store_.List(); }

  GraphStore& store() { return store_; }
  /// The construction-time options template. The *current* default
  /// backend is mutable config — read it via default_backend(), not here.
  const MultiGraphOptions& options() const { return options_; }

  /// The worker budget after defaulting (0 -> all hardware threads) — the
  /// value BuildService divides among the per-graph services.
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
  /// Builds a per-graph service for `name` on `snapshot` and applies the
  /// graph's plan defaults. Expensive (estimator + worker construction) —
  /// callers run it outside mu_ (the template options and defaults are
  /// copied under a short lock inside).
  std::shared_ptr<AsyncQueryService> BuildService(std::string_view name,
                                                  GraphSnapshot snapshot);

  /// Applies `name`'s plan defaults (and the current template backend) to
  /// `service` — idempotent live config updates. ApplyCurrentDefaults
  /// takes mu_; the Locked variant runs with it held, which makes every
  /// defaults apply atomic with the map state it read (two racing config
  /// updates serialize; neither can revert the other's newer apply). Runs
  /// at construction AND again after every install, which closes the
  /// lost-update window of a config update racing an outside-the-lock
  /// build: the post-install apply always reads map state at or after the
  /// concurrent update, so the installed service converges to the latest
  /// defaults.
  void ApplyCurrentDefaults(std::string_view name, AsyncQueryService& service);
  void ApplyDefaultsLocked(std::string_view name, AsyncQueryService& service);

  /// Lock-held half of retirement: parks a service just removed from
  /// `services_` in `retiring_`, where StatsFor/AggregateStats keep
  /// counting it while it drains — cumulative counters can never
  /// transiently dip between a swap/drop and the fold.
  void RetireLocked(std::string_view name,
                    std::shared_ptr<AsyncQueryService> service);

  /// Lock-free half: drains `service` (Shutdown), then atomically (under
  /// mu_) folds its final counters into `retired_stats_` and removes it
  /// from `retiring_` — stats readers see the service's history exactly
  /// once at every instant. Every caller that receives a retired service
  /// from TryResolveLocked/InstallLocked/Drop must call this, outside mu_.
  void FinishRetire(std::string_view name,
                    const std::shared_ptr<AsyncQueryService>& service);

  /// One lock-held resolution attempt for `name`: either the live,
  /// current service; or `unknown` (not in the store); or the snapshot
  /// the caller must build a service for (outside the lock), then offer
  /// back via InstallLocked(). A stale service retired here is moved into
  /// `*retired` for the caller to release outside the lock (its deleter
  /// drains synchronously).
  struct Resolution {
    std::shared_ptr<AsyncQueryService> service;
    GraphSnapshot to_build;
    bool unknown = false;
  };
  Resolution TryResolveLocked(std::string_view name,
                              std::shared_ptr<AsyncQueryService>* retired);

  /// Lock-held install of an outside-the-lock build: swaps `fresh` in if
  /// the store still serves the snapshot it was built on. Returns the
  /// service now current for `name` (`fresh`, or the one a racing builder
  /// installed first), or null when the store moved on mid-build — the
  /// caller discards `fresh` and re-resolves.
  std::shared_ptr<AsyncQueryService> InstallLocked(
      std::string_view name, const std::shared_ptr<AsyncQueryService>& fresh,
      std::shared_ptr<AsyncQueryService>* retired);

  /// The resolve-then-enqueue loop shared by Submit and SubmitTopK.
  /// `enqueue` (a TrySubmit* wrapper) runs with NO registry lock held —
  /// submissions to different graphs never serialize on mu_. Swap-safety
  /// comes from the TrySubmit contract instead: a service drained by a
  /// concurrent Publish()/Drop() returns nullopt, and the loop re-resolves
  /// onto the replacement (or reports kUnknownGraph after a drop) — an
  /// accepted (enqueued) query is still never bounced by a swap.
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
  std::map<std::string, std::shared_ptr<AsyncQueryService>, std::less<>>
      services_;
  /// Per-graph default-plan overrides (see SetGraphDefaults), re-applied
  /// on every service (re)build. Guarded by mu_.
  std::map<std::string, PlanOverrides, std::less<>> graph_defaults_;
  /// Swapped-out/dropped services still draining (see RetireLocked).
  std::map<std::string, std::vector<std::shared_ptr<AsyncQueryService>>,
           std::less<>>
      retiring_;
  /// Final stats (counters and per-backend rows) of fully-drained retired
  /// services, per graph.
  std::map<std::string, ServiceStatsSnapshot, std::less<>> retired_stats_;
};

}  // namespace hkpr

#endif  // HKPR_SERVICE_MULTI_GRAPH_SERVICE_H_
