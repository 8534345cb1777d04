#include "net/command_processor.h"

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "graph/graph_io.h"
#include "hkpr/backend.h"

namespace hkpr {

namespace {

/// printf-style append onto a growing response string.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void Appendf(std::string& out, const char* fmt, ...) {
  char stack_buf[512];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return;
  }
  if (static_cast<size_t>(needed) < sizeof(stack_buf)) {
    out.append(stack_buf, static_cast<size_t>(needed));
  } else {
    std::vector<char> heap_buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(heap_buf.data(), heap_buf.size(), fmt, args_copy);
    out.append(heap_buf.data(), static_cast<size_t>(needed));
  }
  va_end(args_copy);
}

std::string AvailableBackends() {
  return EstimatorRegistry::Global().JoinedNames();
}

/// True when `name` is servable as a default/override backend: a registry
/// name or the routing sentinel.
bool KnownBackend(const std::string& name) {
  return name == kAutoBackend || EstimatorRegistry::Global().Contains(name);
}

std::string JoinNames(const std::vector<GraphInfo>& infos) {
  std::string joined;
  for (const GraphInfo& info : infos) {
    if (!joined.empty()) joined += ",";
    joined += info.name;
  }
  return joined.empty() ? "(none)" : joined;
}

/// Formats one override for the params display ("default" when unset).
std::string FmtOverride(const std::optional<double>& value) {
  if (!value.has_value()) return "default";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", *value);
  return buf;
}

/// Appends the full-field single-line `stats` reply: every
/// ServiceStatsSnapshot counter (the operator view must never silently
/// lose a field — asserted by the protocol test), the stage breakdown,
/// and the service-wide reject counters for the aggregate scope
/// (`service` non-null).
void AppendStatsLine(std::string& out, const std::string& scope,
                     const ServiceStatsSnapshot& s,
                     const MultiGraphService* service) {
  Appendf(out,
          "ok scope=%s submitted=%llu completed=%llu rejected=%llu "
          "invalid_plans=%llu cancelled=%llu expired=%llu "
          "cache_hits=%llu cache_misses=%llu coalesced=%llu computed=%llu "
          "stolen=%llu queue=%zu "
          "latency_count=%llu",
          scope.c_str(), static_cast<unsigned long long>(s.submitted),
          static_cast<unsigned long long>(s.completed),
          static_cast<unsigned long long>(s.rejected),
          static_cast<unsigned long long>(s.invalid_plans),
          static_cast<unsigned long long>(s.cancelled),
          static_cast<unsigned long long>(s.expired),
          static_cast<unsigned long long>(s.cache_hits),
          static_cast<unsigned long long>(s.cache_misses),
          static_cast<unsigned long long>(s.coalesced),
          static_cast<unsigned long long>(s.computed),
          static_cast<unsigned long long>(s.stolen), s.queue_depth,
          static_cast<unsigned long long>(s.latency_count));
  if (service != nullptr) {
    // Service-wide, not attributable to any one graph.
    Appendf(out, " unknown_graph=%llu invalid_argument=%llu",
            static_cast<unsigned long long>(service->unknown_graph_rejects()),
            static_cast<unsigned long long>(
                service->invalid_argument_rejects()));
  }
  Appendf(out, " p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f", s.latency_p50_ms,
          s.latency_p95_ms, s.latency_p99_ms);
  Appendf(out,
          " queue_wait_mean_ms=%.3f queue_wait_p50_ms=%.3f "
          "queue_wait_p99_ms=%.3f cache_mean_ms=%.3f cache_p50_ms=%.3f "
          "cache_p99_ms=%.3f compute_mean_ms=%.3f compute_p50_ms=%.3f "
          "compute_p99_ms=%.3f\n",
          s.queue_wait.mean_ms(), s.queue_wait.p50_ms, s.queue_wait.p99_ms,
          s.cache_lookup.mean_ms(), s.cache_lookup.p50_ms,
          s.cache_lookup.p99_ms, s.compute.mean_ms(), s.compute.p50_ms,
          s.compute.p99_ms);
}

void AppendJsonField(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, value);
  if (out.back() != '{') out += ",";
  out += buf;
}

void AppendJsonField(std::string& out, const char* key,
                     unsigned long long value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key, value);
  if (out.back() != '{') out += ",";
  out += buf;
}

void AppendJsonStage(std::string& out, const char* key,
                     const StageLatencySnapshot& stage) {
  if (out.back() != '{') out += ",";
  out += "\"";
  out += key;
  out += "\":{";
  AppendJsonField(out, "count", static_cast<unsigned long long>(stage.count));
  AppendJsonField(out, "total_us",
                  static_cast<unsigned long long>(stage.total_us));
  AppendJsonField(out, "mean_ms", stage.mean_ms());
  AppendJsonField(out, "p50_ms", stage.p50_ms);
  AppendJsonField(out, "p95_ms", stage.p95_ms);
  AppendJsonField(out, "p99_ms", stage.p99_ms);
  out += "}";
}

/// The `stats --json` body: one JSON object per line, machine-parseable
/// twin of AppendStatsLine with the same field set.
std::string StatsJson(const std::string& scope, const ServiceStatsSnapshot& s,
                      const MultiGraphService* service) {
  std::string out = "{\"scope\":\"" + scope + "\"";
  const auto u64 = [](uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  AppendJsonField(out, "submitted", u64(s.submitted));
  AppendJsonField(out, "completed", u64(s.completed));
  AppendJsonField(out, "rejected", u64(s.rejected));
  AppendJsonField(out, "invalid_plans", u64(s.invalid_plans));
  AppendJsonField(out, "cancelled", u64(s.cancelled));
  AppendJsonField(out, "expired", u64(s.expired));
  AppendJsonField(out, "cache_hits", u64(s.cache_hits));
  AppendJsonField(out, "cache_misses", u64(s.cache_misses));
  AppendJsonField(out, "coalesced", u64(s.coalesced));
  AppendJsonField(out, "computed", u64(s.computed));
  AppendJsonField(out, "stolen", u64(s.stolen));
  AppendJsonField(out, "queue_depth", u64(s.queue_depth));
  AppendJsonField(out, "latency_count", u64(s.latency_count));
  if (service != nullptr) {
    AppendJsonField(out, "unknown_graph",
                    u64(service->unknown_graph_rejects()));
    AppendJsonField(out, "invalid_argument",
                    u64(service->invalid_argument_rejects()));
  }
  AppendJsonField(out, "p50_ms", s.latency_p50_ms);
  AppendJsonField(out, "p95_ms", s.latency_p95_ms);
  AppendJsonField(out, "p99_ms", s.latency_p99_ms);
  out += ",\"stages\":{";
  AppendJsonStage(out, "queue_wait", s.queue_wait);
  AppendJsonStage(out, "cache", s.cache_lookup);
  AppendJsonStage(out, "compute", s.compute);
  out += "}";
  AppendJsonField(out, "traced_total_us", u64(s.traced_total_us));
  out += "}";
  return out;
}

/// One Prometheus-style sample line: name{<label>="...",...} value.
void AppendMetricLine(std::string& out, const char* name, const char* label,
                      const std::string& scope,
                      const std::string& extra_labels, double value) {
  if (extra_labels.empty()) {
    Appendf(out, "%s{%s=\"%s\"} %.6g\n", name, label, scope.c_str(), value);
  } else {
    Appendf(out, "%s{%s=\"%s\",%s} %.6g\n", name, label, scope.c_str(),
            extra_labels.c_str(), value);
  }
}

/// Integer-valued samples (counters, gauges) print exactly — %.6g would
/// round large counters.
void AppendMetricLine(std::string& out, const char* name, const char* label,
                      const std::string& scope,
                      const std::string& extra_labels, uint64_t value) {
  if (extra_labels.empty()) {
    Appendf(out, "%s{%s=\"%s\"} %llu\n", name, label, scope.c_str(),
            static_cast<unsigned long long>(value));
  } else {
    Appendf(out, "%s{%s=\"%s\",%s} %llu\n", name, label, scope.c_str(),
            extra_labels.c_str(), static_cast<unsigned long long>(value));
  }
}

}  // namespace

bool ParsePlanTokens(std::istringstream& in, PlanOverrides* plan,
                     std::string* tenant, std::string* error) {
  std::string token;
  bool seen_backend = false;
  bool seen_t = false;
  bool seen_eps = false;
  bool seen_delta = false;
  bool seen_tenant = false;
  const char* expected = tenant != nullptr
                             ? "backend=NAME|auto, t=V, eps=V, delta=V, "
                               "tenant=ID"
                             : "backend=NAME|auto, t=V, eps=V, delta=V";
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "unknown token \"" + token + "\" (expected " + expected + ")";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    const bool known_key = key == "backend" || key == "t" || key == "eps" ||
                           key == "delta" ||
                           (tenant != nullptr && key == "tenant");
    if (!known_key) {
      *error = "unknown token \"" + token + "\" (expected " + expected + ")";
      return false;
    }
    // Hardened edge cases: an empty value ("t=") and a repeated key
    // ("t=1 t=2") are each a clear error, never skipped or last-wins.
    if (value.empty()) {
      *error = "empty value in \"" + token + "\" (expected " + key + "=...)";
      return false;
    }
    bool* seen = key == "backend"  ? &seen_backend
                 : key == "t"      ? &seen_t
                 : key == "eps"    ? &seen_eps
                 : key == "delta"  ? &seen_delta
                                   : &seen_tenant;
    if (*seen) {
      *error = "duplicate key \"" + key + "\" in \"" + token + "\"";
      return false;
    }
    *seen = true;
    if (key == "backend") {
      plan->backend = value;
      if (!KnownBackend(plan->backend)) {
        *error = "unknown backend \"" + plan->backend +
                 "\" (available: auto," + AvailableBackends() + ")";
        return false;
      }
    } else if (key == "tenant") {
      *tenant = value;
    } else {
      const std::optional<double> parsed = ParseDouble(value);
      if (!parsed.has_value()) {
        *error = "malformed value in \"" + token + "\"";
        return false;
      }
      if (key == "t") {
        plan->t = *parsed;
      } else if (key == "eps") {
        plan->eps_r = *parsed;
      } else {
        plan->delta = *parsed;
      }
    }
  }
  return true;
}

CommandProcessor::CommandProcessor(GraphStore& store,
                                   MultiGraphService& service,
                                   TenantRegistry& tenants,
                                   const ApproxParams& params,
                                   std::string initial_graph)
    : store_(store),
      service_(service),
      tenants_(tenants),
      params_(params),
      initial_graph_(std::move(initial_graph)) {}

ClientSession CommandProcessor::NewSession() const {
  ClientSession session;
  session.current_graph = initial_graph_;
  return session;
}

CommandResult CommandProcessor::Execute(ClientSession& session,
                                        const std::string& line) {
  CommandResult result;
  std::istringstream in(line);
  std::string command;
  in >> command;
  if (command.empty()) return result;
  if (command == "quit" || command == "exit") {
    result.quit = true;
    return result;
  }

  std::string& out = result.output;
  if (command == "query" || command == "topk") {
    ExecuteQuery(session, command, in, out);
  } else if (command == "graph") {
    ExecuteGraph(session, in, out);
  } else if (command == "backend") {
    ExecuteBackend(in, out);
  } else if (command == "params") {
    ExecuteParams(in, out);
  } else if (command == "tenant") {
    ExecuteTenant(session, in, out);
  } else if (command == "stats") {
    ExecuteStats(in, out);
  } else if (command == "metrics") {
    ExecuteMetrics(out);
  } else if (command == "invalidate") {
    service_.InvalidateCaches();
    out += "ok caches invalidated\n";
  } else {
    Appendf(out,
            "err unknown command \"%s\" (query/topk/graph/backend/params/"
            "tenant/stats/metrics/invalidate/quit)\n",
            command.c_str());
  }
  return result;
}

void CommandProcessor::ExecuteQuery(ClientSession& session,
                                    const std::string& command,
                                    std::istringstream& in, std::string& out) {
  const GraphSnapshot snapshot = store_.Get(session.current_graph);
  if (!snapshot) {
    Appendf(out, "err unknown graph \"%s\" (graph load/use first)\n",
            session.current_graph.c_str());
    return;
  }
  long long seed_node = -1;
  long long k = 10;
  // A failed extraction writes 0 (C++11), which is a valid node id —
  // restore the sentinel so "query" with no/garbage argument errs.
  if (!(in >> seed_node)) seed_node = -1;
  if (command == "topk" && !(in >> k)) k = -1;
  if (seed_node < 0 || seed_node >= snapshot.graph->NumNodes() || k <= 0) {
    Appendf(out,
            "err usage: %s <seed in [0,%u)>%s [backend=NAME|auto] "
            "[t=V] [eps=V] [delta=V] [tenant=ID]\n",
            command.c_str(), snapshot.graph->NumNodes(),
            command == "topk" ? " <k >= 1>" : "");
    return;
  }
  SubmitOptions submit;
  std::string tenant = session.tenant;
  std::string token_error;
  if (!ParsePlanTokens(in, &submit.plan, &tenant, &token_error)) {
    Appendf(out, "err %s\n", token_error.c_str());
    return;
  }

  // Tenant QoS gate, at the same boundary the service's own admission
  // control runs: the current queue depth of the graph's service against
  // the configured cap. The lookup builds no service, so a throttled or
  // shed query costs no worker threads.
  const size_t queue_depth = service_.QueueDepth(session.current_graph);
  const size_t max_depth = service_.options().service.max_queue_depth;
  const TenantAdmission admission =
      tenants_.Admit(tenant, queue_depth, max_depth);
  switch (admission) {
    case TenantAdmission::kAdmitted:
      break;
    case TenantAdmission::kThrottled:
      Appendf(out, "err tenant-throttled tenant=%s (rate limit %.6g qps)\n",
              tenant.c_str(), tenants_.ConfigFor(tenant).rate_qps);
      return;
    case TenantAdmission::kQuotaExceeded:
      Appendf(out, "err tenant-quota tenant=%s (max %zu in flight)\n",
              tenant.c_str(), tenants_.ConfigFor(tenant).max_in_flight);
      return;
    case TenantAdmission::kShedLoad:
      Appendf(out,
              "err tenant-shed tenant=%s (queue depth %zu, priority=%s)\n",
              tenant.c_str(), queue_depth,
              TenantPriorityName(tenants_.ConfigFor(tenant).priority));
      return;
  }

  const NodeId node = static_cast<NodeId>(seed_node);
  QueryHandle handle =
      command == "query"
          ? service_.Submit(session.current_graph, node, submit)
          : service_.SubmitTopK(session.current_graph, node,
                                static_cast<size_t>(k), submit);
  const QueryResult result = handle.result.get();
  tenants_.OnComplete(tenant, result.status == QueryStatus::kOk,
                      result.latency_ms / 1000.0);
  if (result.status != QueryStatus::kOk) {
    if (result.status == QueryStatus::kUnknownGraph) {
      Appendf(out, "err unknown graph \"%s\" (dropped concurrently?)\n",
              session.current_graph.c_str());
    } else {
      Appendf(out, "err status=%s\n", QueryStatusName(result.status));
    }
  } else if (command == "query") {
    Appendf(out,
            "ok graph=%s version=%llu seed=%u backend=%s nnz=%zu "
            "sum=%.6f cache=%s latency_ms=%.3f\n",
            session.current_graph.c_str(),
            static_cast<unsigned long long>(result.graph_version), node,
            result.backend.c_str(), result.estimate->nnz(),
            result.estimate->Sum(), result.from_cache ? "hit" : "miss",
            result.latency_ms);
  } else {
    Appendf(out, "ok graph=%s version=%llu seed=%u backend=%s k=%zu cache=%s",
            session.current_graph.c_str(),
            static_cast<unsigned long long>(result.graph_version), node,
            result.backend.c_str(), result.top_k.size(),
            result.from_cache ? "hit" : "miss");
    for (const ScoredNode& s : result.top_k) {
      Appendf(out, " %u:%.6g", s.node, s.score);
    }
    out += "\n";
  }
}

void CommandProcessor::ExecuteGraph(ClientSession& session,
                                    std::istringstream& in, std::string& out) {
  std::string sub;
  in >> sub;
  if (sub == "load") {
    std::string name, path;
    in >> name >> path;
    if (name.empty() || path.empty()) {
      out += "err usage: graph load <name> <path>\n";
    } else {
      Result<Graph> loaded = LoadEdgeList(path);
      if (!loaded.ok()) {
        Appendf(out, "err cannot load %s: %s\n", path.c_str(),
                loaded.status().ToString().c_str());
      } else {
        Graph graph = std::move(loaded).value();
        const uint32_t n = graph.NumNodes();
        const uint64_t m = graph.NumEdges();
        const uint64_t version = service_.Publish(name, std::move(graph));
        // Adopt the loaded graph when the current one is gone (e.g.
        // dropped), so load restores queryability without a `use`.
        if (session.current_graph.empty() ||
            !store_.Contains(session.current_graph)) {
          session.current_graph = name;
        }
        Appendf(out, "ok graph=%s version=%llu nodes=%u edges=%llu\n",
                name.c_str(), static_cast<unsigned long long>(version), n,
                static_cast<unsigned long long>(m));
      }
    }
  } else if (sub == "use") {
    std::string name;
    in >> name;
    if (name.empty()) {
      out += "err usage: graph use <name>\n";
    } else if (!store_.Contains(name)) {
      // An unknown (e.g. dropped) name is an error, never a silent
      // fallback to the previous graph.
      Appendf(out, "err unknown graph \"%s\" (loaded: %s)\n", name.c_str(),
              JoinNames(store_.List()).c_str());
    } else {
      session.current_graph = name;
      const GraphSnapshot snapshot = store_.Get(name);
      Appendf(out, "ok graph=%s version=%llu nodes=%u\n", name.c_str(),
              static_cast<unsigned long long>(snapshot.version),
              snapshot.graph->NumNodes());
    }
  } else if (sub == "drop") {
    std::string name;
    in >> name;
    if (name.empty()) {
      out += "err usage: graph drop <name>\n";
    } else if (!service_.Drop(name)) {
      Appendf(out, "err unknown graph \"%s\" (loaded: %s)\n", name.c_str(),
              JoinNames(store_.List()).c_str());
    } else {
      // The session's current graph intentionally keeps pointing at the
      // dropped name: later queries err until `graph use` (or a `graph
      // load`, which adopts its graph when the current one is gone).
      Appendf(out, "ok dropped=%s\n", name.c_str());
    }
  } else if (sub == "list") {
    const std::vector<GraphInfo> infos = store_.List();
    Appendf(out, "ok graphs=%zu", infos.size());
    for (const GraphInfo& info : infos) {
      Appendf(out, " %s:v%llu:n%u:m%llu%s", info.name.c_str(),
              static_cast<unsigned long long>(info.version), info.nodes,
              static_cast<unsigned long long>(info.edges),
              info.name == session.current_graph ? ":current" : "");
    }
    out += "\n";
  } else {
    out += "err usage: graph load|use|drop|list\n";
  }
}

void CommandProcessor::ExecuteBackend(std::istringstream& in,
                                      std::string& out) {
  std::string name;
  in >> name;
  if (name.empty()) {
    Appendf(out, "ok backend=%s available=auto,%s\n",
            service_.default_backend().c_str(), AvailableBackends().c_str());
  } else if (!service_.SetDefaultBackend(name)) {
    Appendf(out, "err unknown backend \"%s\" (available: auto,%s)\n",
            name.c_str(), AvailableBackends().c_str());
  } else {
    // A live config update: every per-graph service keeps its workers
    // and queue — in-flight queries finish on the plan they were
    // submitted with, later ones resolve against the new default, and
    // plan-keyed caching means no invalidation is needed.
    Appendf(out, "ok backend=%s graphs=%zu\n", name.c_str(), store_.Size());
  }
}

void CommandProcessor::ExecuteParams(std::istringstream& in,
                                     std::string& out) {
  std::string name;
  in >> name;
  if (name.empty()) {
    out += "err usage: params <graph> [clear] [backend=NAME|auto] "
           "[t=V] [eps=V] [delta=V]\n";
    return;
  }
  if (!store_.Contains(name)) {
    Appendf(out, "err unknown graph \"%s\" (loaded: %s)\n", name.c_str(),
            JoinNames(store_.List()).c_str());
    return;
  }
  PlanOverrides overrides;
  std::string token_error;
  std::string first;
  const auto rest = in.tellg();
  in >> first;
  const bool clear = first == "clear";
  const bool show = first.empty();
  if (!clear && !show) in.seekg(rest);
  if (!clear && !show &&
      !ParsePlanTokens(in, &overrides, nullptr, &token_error)) {
    Appendf(out, "err %s\n", token_error.c_str());
    return;
  }
  if (!clear && !show &&
      !ServableParams(ApplyParamOverrides(params_, overrides))) {
    out += "err params out of range (t in (0,700], eps in (0,1), "
           "delta in (0,1])\n";
    return;
  }
  if (show) {
    overrides = service_.GraphDefaults(name);
  } else if (!service_.SetGraphDefaults(name, overrides)) {
    // Raced with a concurrent drop — report like any unknown graph.
    Appendf(out, "err unknown graph \"%s\" (loaded: %s)\n", name.c_str(),
            JoinNames(store_.List()).c_str());
    return;
  }
  Appendf(out, "ok graph=%s backend=%s t=%s eps=%s delta=%s\n", name.c_str(),
          overrides.backend.empty() ? "default" : overrides.backend.c_str(),
          FmtOverride(overrides.t).c_str(), FmtOverride(overrides.eps_r).c_str(),
          FmtOverride(overrides.delta).c_str());
}

void CommandProcessor::ExecuteTenant(ClientSession& session,
                                     std::istringstream& in,
                                     std::string& out) {
  std::string sub;
  in >> sub;
  if (sub.empty()) {
    Appendf(out, "ok tenant=%s\n", session.tenant.c_str());
    return;
  }
  if (sub == "list") {
    const std::vector<TenantStatsSnapshot> rows = tenants_.Snapshot();
    for (const TenantStatsSnapshot& r : rows) {
      Appendf(out,
              "tenant=%s priority=%s rate_qps=%.6g burst=%.6g quota=%zu "
              "in_flight=%zu admitted=%llu throttled=%llu "
              "quota_rejected=%llu shed=%llu completed=%llu failed=%llu "
              "p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f\n",
              r.tenant.c_str(), TenantPriorityName(r.config.priority),
              r.config.rate_qps, r.config.burst, r.config.max_in_flight,
              r.in_flight, static_cast<unsigned long long>(r.admitted),
              static_cast<unsigned long long>(r.throttled),
              static_cast<unsigned long long>(r.quota_rejected),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.failed), r.latency_p50_ms,
              r.latency_p95_ms, r.latency_p99_ms);
    }
    Appendf(out, "ok tenants=%zu\n", rows.size());
    return;
  }
  if (sub == "set") {
    std::string name;
    in >> name;
    if (name.empty()) {
      out += "err usage: tenant set <id> [rate=QPS] [burst=N] [quota=N] "
             "[priority=low|normal|high]\n";
      return;
    }
    TenantQosConfig config = tenants_.ConfigFor(name);
    std::string token;
    bool any = false;
    while (in >> token) {
      const size_t eq = token.find('=');
      const std::string key =
          eq == std::string::npos ? token : token.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "" : token.substr(eq + 1);
      if (eq == std::string::npos || value.empty()) {
        Appendf(out, "err empty value in \"%s\" (expected key=value)\n",
                token.c_str());
        return;
      }
      if (key == "rate") {
        const std::optional<double> rate = ParseDouble(value);
        if (!rate.has_value() || *rate < 0.0) {
          Appendf(out, "err malformed value in \"%s\"\n", token.c_str());
          return;
        }
        config.rate_qps = *rate;
      } else if (key == "burst") {
        const std::optional<double> burst = ParseDouble(value);
        if (!burst.has_value() || *burst < 1.0) {
          Appendf(out, "err malformed value in \"%s\" (burst >= 1)\n",
                  token.c_str());
          return;
        }
        config.burst = *burst;
      } else if (key == "quota") {
        const std::optional<uint64_t> quota = ParseUint64(value, SIZE_MAX);
        if (!quota.has_value()) {
          Appendf(out, "err malformed value in \"%s\"\n", token.c_str());
          return;
        }
        config.max_in_flight = static_cast<size_t>(*quota);
      } else if (key == "priority") {
        const std::optional<TenantPriority> priority =
            ParseTenantPriority(value);
        if (!priority.has_value()) {
          Appendf(out,
                  "err malformed value in \"%s\" (expected low|normal|"
                  "high)\n",
                  token.c_str());
          return;
        }
        config.priority = *priority;
      } else {
        Appendf(out,
                "err unknown token \"%s\" (expected rate=QPS, burst=N, "
                "quota=N, priority=low|normal|high)\n",
                token.c_str());
        return;
      }
      any = true;
    }
    if (!any) {
      out += "err usage: tenant set <id> [rate=QPS] [burst=N] [quota=N] "
             "[priority=low|normal|high]\n";
      return;
    }
    tenants_.Configure(name, config);
    Appendf(out,
            "ok tenant=%s rate_qps=%.6g burst=%.6g quota=%zu priority=%s\n",
            name.c_str(), config.rate_qps, config.burst, config.max_in_flight,
            TenantPriorityName(config.priority));
    return;
  }
  // `tenant <id>`: the session handshake. The id is created lazily with
  // the default (unlimited) config on first admission.
  session.tenant = sub;
  Appendf(out, "ok tenant=%s\n", session.tenant.c_str());
}

void CommandProcessor::ExecuteStats(std::istringstream& in, std::string& out) {
  std::string name;
  bool json = false;
  std::string token;
  while (in >> token) {
    if (token == "--json") {
      json = true;
    } else {
      name = token;
    }
  }
  const ServiceStatsSnapshot s =
      name.empty() ? service_.AggregateStats() : service_.StatsFor(name);
  // A named scope is valid while the graph is loaded AND after it was
  // dropped (StatsFor keeps the graph's stats block); only a name that
  // never served anything is an error.
  if (!name.empty() && !store_.Contains(name) && s.submitted == 0 &&
      s.completed == 0) {
    Appendf(out, "err unknown graph \"%s\" (loaded: %s)\n", name.c_str(),
            JoinNames(store_.List()).c_str());
    return;
  }
  const std::string scope = name.empty() ? "all" : name;
  if (json) {
    Appendf(out, "ok %s\n",
            StatsJson(scope, s, name.empty() ? &service_ : nullptr).c_str());
  } else {
    AppendStatsLine(out, scope, s, name.empty() ? &service_ : nullptr);
  }
}

size_t CommandProcessor::AppendMetricsForScope(const std::string& scope,
                                               std::string& out) {
  size_t lines = 0;
  const ServiceStatsSnapshot s = service_.StatsFor(scope);
  const auto flat = [&](const char* name, uint64_t value) {
    AppendMetricLine(out, name, "graph", scope, "", value);
    ++lines;
  };
  flat("hkpr_submitted_total", s.submitted);
  flat("hkpr_completed_total", s.completed);
  flat("hkpr_rejected_total", s.rejected);
  flat("hkpr_invalid_plans_total", s.invalid_plans);
  flat("hkpr_cancelled_total", s.cancelled);
  flat("hkpr_expired_total", s.expired);
  flat("hkpr_cache_hits_total", s.cache_hits);
  flat("hkpr_cache_misses_total", s.cache_misses);
  flat("hkpr_coalesced_total", s.coalesced);
  flat("hkpr_computed_total", s.computed);
  flat("hkpr_stolen_total", s.stolen);
  flat("hkpr_queue_depth", static_cast<uint64_t>(s.queue_depth));
  const auto quantile = [&](const char* name, const char* q, double value,
                            const char* stage) {
    std::string labels;
    if (stage != nullptr) {
      labels = std::string("stage=\"") + stage + "\",";
    }
    labels += std::string("quantile=\"") + q + "\"";
    AppendMetricLine(out, name, "graph", scope, labels, value);
    ++lines;
  };
  quantile("hkpr_latency_ms", "0.5", s.latency_p50_ms, nullptr);
  quantile("hkpr_latency_ms", "0.95", s.latency_p95_ms, nullptr);
  quantile("hkpr_latency_ms", "0.99", s.latency_p99_ms, nullptr);
  const struct {
    const char* name;
    const StageLatencySnapshot* stage;
  } stages[] = {{"queue_wait", &s.queue_wait},
                {"cache", &s.cache_lookup},
                {"compute", &s.compute}};
  for (const auto& [stage_name, stage] : stages) {
    quantile("hkpr_stage_latency_ms", "0.5", stage->p50_ms, stage_name);
    quantile("hkpr_stage_latency_ms", "0.99", stage->p99_ms, stage_name);
    AppendMetricLine(out, "hkpr_stage_latency_mean_ms", "graph", scope,
                     std::string("stage=\"") + stage_name + "\"",
                     stage->mean_ms());
    ++lines;
  }
  // The (graph, backend) dimensions: what each resolved backend actually
  // served on this graph, cumulative across hot-swaps. They come from the
  // same snapshot as the totals above, so they sum to them.
  for (const BackendStatsSnapshot& row : s.backends) {
    const std::string backend_label = "backend=\"" + row.backend + "\"";
    const auto dim = [&](const char* name, uint64_t value) {
      AppendMetricLine(out, name, "graph", scope, backend_label, value);
      ++lines;
    };
    dim("hkpr_backend_completed_total", row.completed);
    dim("hkpr_backend_computed_total", row.computed);
    dim("hkpr_backend_cache_hits_total", row.cache_hits);
    dim("hkpr_backend_coalesced_total", row.coalesced);
    AppendMetricLine(out, "hkpr_backend_latency_ms", "graph", scope,
                     backend_label + ",quantile=\"0.5\"", row.latency_p50_ms);
    AppendMetricLine(out, "hkpr_backend_latency_ms", "graph", scope,
                     backend_label + ",quantile=\"0.99\"", row.latency_p99_ms);
    lines += 2;
  }
  return lines;
}

size_t CommandProcessor::AppendTenantMetrics(std::string& out) {
  size_t lines = 0;
  for (const TenantStatsSnapshot& r : tenants_.Snapshot()) {
    const auto row = [&](const char* name, uint64_t value) {
      AppendMetricLine(out, name, "tenant", r.tenant, "", value);
      ++lines;
    };
    row("hkpr_tenant_admitted_total", r.admitted);
    row("hkpr_tenant_throttled_total", r.throttled);
    row("hkpr_tenant_quota_rejected_total", r.quota_rejected);
    row("hkpr_tenant_shed_total", r.shed);
    row("hkpr_tenant_completed_total", r.completed);
    row("hkpr_tenant_failed_total", r.failed);
    row("hkpr_tenant_in_flight", static_cast<uint64_t>(r.in_flight));
    AppendMetricLine(out, "hkpr_tenant_latency_ms", "tenant", r.tenant,
                     "quantile=\"0.5\"", r.latency_p50_ms);
    AppendMetricLine(out, "hkpr_tenant_latency_ms", "tenant", r.tenant,
                     "quantile=\"0.99\"", r.latency_p99_ms);
    lines += 2;
  }
  return lines;
}

void CommandProcessor::ExecuteMetrics(std::string& out) {
  // Prometheus-style text exposition, one block of
  // `name{label="v",...} value` lines per scope plus the per-tenant
  // rows, terminated by a single protocol line ("ok metrics ...") so
  // line-oriented clients know where the block ends.
  size_t lines = 0;
  const std::vector<std::string> scopes = service_.StatsScopes();
  for (const std::string& scope : scopes) {
    lines += AppendMetricsForScope(scope, out);
  }
  lines += AppendTenantMetrics(out);
  Appendf(out, "ok metrics graphs=%zu lines=%zu\n", scopes.size(), lines);
}

}  // namespace hkpr
