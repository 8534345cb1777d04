// hkpr_server: an interactive multi-graph HKPR serving frontend over
// stdin/stdout, optionally also over TCP.
//
//   $ ./build/example_hkpr_server [--graphs=name=path,...] [--graph=PATH]
//                                 [--nodes=N] [--workers=W] [--cache=CAP]
//                                 [--seed=S] [--backend=NAME|auto]
//                                 [--walk-width=N]
//                                 [--listen=PORT] [--net-executors=N]
//
// Loads one or more named graphs into a GraphStore (--graphs takes a
// comma-separated name=path list of SNAP edge-lists; --graph=PATH loads a
// single graph named "default"; with neither, a synthetic powerlaw-cluster
// graph with --nodes nodes is published as "default") and serves
// line-oriented queries through a MultiGraphService — per-graph async
// services sharing a worker budget of --workers threads:
//
//   query <seed> [backend=NAME|auto] [t=V] [eps=V] [delta=V] [tenant=ID]
//                           full HKPR estimate on the current graph;
//                           trailing key=value tokens override this one
//                           query's plan (backend=auto routes adaptively)
//   topk <seed> <k> [backend=...] [t=...] [eps=...] [delta=...]
//                           top-k nodes by normalized HKPR
//   graph load <name> <path>  load a graph from disk, or hot-swap a loaded
//                           one: its service and workers stay and take
//                           the new snapshot
//   graph use <name>        switch the current graph (err if not loaded)
//   graph drop <name>       remove a graph; its service drains gracefully
//   graph list              loaded graphs with version/size
//   backend [<name>|auto]   show / switch every graph's default backend —
//                           a live config update, no drain or rebuild;
//                           "auto" routes each query by seed degree, t
//                           and graph scale
//   params <graph> [backend=NAME|auto] [t=V] [eps=V] [delta=V]
//                           per-graph default-plan overrides (kept across
//                           hot-swaps); with no tokens, shows the
//                           graph's current overrides; "params <graph>
//                           clear" restores the template
//   tenant [<id>]           show / switch the session's tenant (QoS
//                           accounting identity; sessions start in
//                           "default")
//   tenant set <id> [rate=QPS] [burst=N] [quota=N]
//                   [priority=low|normal|high]
//                           configure a tenant's token-bucket rate limit,
//                           in-flight quota and priority class; throttled
//                           / over-quota / shed queries get distinct
//                           "err tenant-..." responses
//   tenant list             one row per tenant: config + admission and
//                           latency counters
//   stats [<name>] [--json] aggregate (or one graph's) counters/latency:
//                           every ServiceStatsSnapshot field plus the
//                           queue-wait/cache/compute stage breakdown;
//                           --json emits the same fields as one JSON
//                           object after the "ok "
//   metrics                 Prometheus-style text: per-graph counters,
//                           stage/latency quantiles, per-(graph, backend)
//                           dimensioned rows and per-tenant
//                           hkpr_tenant_* rows, terminated by a final
//                           "ok metrics graphs=G lines=N" line
//   invalidate              drop every graph's cached estimates
//   quit                    exit (over TCP: closes that connection)
//
// The whole dispatch lives in net/command_processor.h; this binary wires
// it to stdin/stdout and — with --listen=PORT — to an epoll socket
// frontend (net/socket_server.h) serving the same protocol to many
// concurrent pipelined connections. --listen=0 binds an ephemeral port;
// the banner's listen=PORT field reports the resolved one. Both
// transports run concurrently and share the store, service and tenant
// registry; responses for a given command stream are byte-identical
// across them.
//
// Every completed query is traced through its pipeline stages and
// counted on its resolved backend's row (service/service_stats.h); there
// is no switch to turn that off.
//
// --walk-width=N sets how many walks the walk kernel (hkpr/walk_kernel.h)
// keeps in flight per worker in every randomized backend. It changes speed
// only, never results.
//
// Graph names (graph load, --graphs=) and tenant ids (tenant, tenant set,
// tenant=) are 1-64 characters of [A-Za-z0-9_.-]; any other name gets an
// "err invalid name ..." reply (exit 1 for the flag), because names are
// printed unescaped into graph list, stats --json and metrics.
//
// Responses are single lines starting with "ok" or "err", so the server
// can sit behind a pipe or a plain TCP client. Query responses carry
// "backend=<name>" — the plan the query actually ran, which is how a
// routed (auto) query reports the router's choice. Re-`load`ing a name
// hot-swaps it inside the graph's running service — no thread is started
// or joined: in-flight queries finish on the old snapshot, later queries
// see the new one, and the version bump makes pre-swap cache entries
// unreachable (cache keys embed the full resolved plan, so distinct plans
// never share entries either). Queries against a
// dropped/unknown current graph report an error — the server never
// silently falls back to another graph.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "hkpr/backend.h"
#include "hkpr/walk_kernel.h"
#include "net/command_processor.h"
#include "net/socket_server.h"
#include "service/multi_graph_service.h"

using namespace hkpr;

namespace {

constexpr const char* kValidFlags =
    "--graphs=name=path,... --graph=PATH --nodes=N --workers=W --cache=CAP "
    "--seed=S --backend=NAME|auto --walk-width=N --listen=PORT "
    "--net-executors=N";

/// Parses "name=path,name=path,..." into pairs; returns false on syntax
/// errors (missing '=' or empty name/path).
bool ParseGraphList(const std::string& spec,
                    std::vector<std::pair<std::string, std::string>>* out) {
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      return false;
    }
    out->emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return !out->empty();
}

std::string JoinNames(const std::vector<GraphInfo>& infos) {
  std::string joined;
  for (const GraphInfo& info : infos) {
    if (!joined.empty()) joined += ",";
    joined += info.name;
  }
  return joined.empty() ? "(none)" : joined;
}

/// Splits "--name=value" and matches against `flag` ("--name="). Returns
/// the value on a match, nullopt otherwise.
std::optional<std::string> FlagValue(const char* arg, const char* flag) {
  const size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return std::nullopt;
  return std::string(arg + len);
}

/// Numeric flag values go through the validated parsers — `--workers=-1`
/// and `--nodes=abc` are hard errors, never a silent wrap to 4294967295
/// or 0 the way atoi/atoll parsed them.
bool NumericFlag(const std::string& value, const char* flag, uint64_t max,
                 uint64_t* out) {
  const std::optional<uint64_t> parsed = ParseUint64(value, max);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "err invalid value \"%s\" for %s (expected unsigned "
                 "integer <= %llu)\n",
                 value.c_str(), flag,
                 static_cast<unsigned long long>(max));
    return false;
  }
  *out = *parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graphs_flag;
  std::string graph_path;
  uint64_t nodes = 20000;
  uint64_t workers = 0;
  uint64_t cache_capacity = 4096;
  uint64_t seed = 42;
  std::string backend = "tea+";
  WalkKernelOptions walk_kernel;
  bool listen_set = false;
  uint64_t listen_port = 0;
  uint64_t net_executors = 4;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::optional<std::string> v;
    if ((v = FlagValue(arg, "--graphs="))) {
      graphs_flag = *v;
    } else if ((v = FlagValue(arg, "--graph="))) {
      graph_path = *v;
    } else if ((v = FlagValue(arg, "--nodes="))) {
      if (!NumericFlag(*v, "--nodes", UINT32_MAX, &nodes)) return 1;
    } else if ((v = FlagValue(arg, "--workers="))) {
      if (!NumericFlag(*v, "--workers", UINT32_MAX, &workers)) return 1;
    } else if ((v = FlagValue(arg, "--cache="))) {
      if (!NumericFlag(*v, "--cache", SIZE_MAX, &cache_capacity)) return 1;
    } else if ((v = FlagValue(arg, "--seed="))) {
      if (!NumericFlag(*v, "--seed", UINT64_MAX, &seed)) return 1;
    } else if ((v = FlagValue(arg, "--backend="))) {
      backend = *v;
    } else if ((v = FlagValue(arg, "--walk-width="))) {
      uint64_t width = 0;
      if (!NumericFlag(*v, "--walk-width", kMaxWalkKernelWidth, &width) ||
          width == 0) {
        if (width == 0) {
          std::fprintf(stderr, "err --walk-width must be >= 1\n");
        }
        return 1;
      }
      walk_kernel.width = static_cast<uint32_t>(width);
    } else if ((v = FlagValue(arg, "--listen="))) {
      if (!NumericFlag(*v, "--listen", 65535, &listen_port)) return 1;
      listen_set = true;
    } else if ((v = FlagValue(arg, "--net-executors="))) {
      if (!NumericFlag(*v, "--net-executors", 256, &net_executors) ||
          net_executors == 0) {
        if (net_executors == 0) {
          std::fprintf(stderr, "err --net-executors must be >= 1\n");
        }
        return 1;
      }
    } else {
      // A typo like --worker=8 must never be silently ignored.
      std::fprintf(stderr, "err unknown flag \"%s\" (valid: %s)\n", arg,
                   kValidFlags);
      return 1;
    }
  }
  if (nodes == 0) {
    std::fprintf(stderr, "err --nodes must be >= 1\n");
    return 1;
  }
  if (!(backend == kAutoBackend ||
        EstimatorRegistry::Global().Contains(backend))) {
    std::fprintf(stderr, "err unknown backend \"%s\" (available: auto,%s)\n",
                 backend.c_str(),
                 EstimatorRegistry::Global().JoinedNames().c_str());
    return 1;
  }

  // Assemble the initial store: --graphs list, --graph single, or a
  // synthetic default.
  GraphStore store;
  std::string current;
  std::vector<std::pair<std::string, std::string>> to_load;
  if (!graphs_flag.empty()) {
    if (!ParseGraphList(graphs_flag, &to_load)) {
      std::fprintf(stderr, "err --graphs expects name=path[,name=path...]\n");
      return 1;
    }
    for (const auto& entry : to_load) {
      if (!ValidName(entry.first)) {
        std::fprintf(stderr, "err %s\n", InvalidNameError(entry.first).c_str());
        return 1;
      }
    }
  } else if (!graph_path.empty()) {
    to_load.emplace_back("default", graph_path);
  }
  for (const auto& [name, path] : to_load) {
    Result<Graph> loaded = LoadEdgeList(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "err cannot load %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    store.Publish(name, std::move(loaded).value());
    if (current.empty()) current = name;
  }
  if (store.Size() == 0) {
    store.Publish("default", PowerlawCluster(static_cast<uint32_t>(nodes), 4,
                                             0.3, seed));
    current = "default";
  }

  // One parameter set serves every graph (cache keys carry the parameters,
  // so this is a policy choice, not a correctness one): delta scales with
  // the first graph's size, as in the single-graph server.
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta =
      1.0 / static_cast<double>(store.Get(current).graph->NumNodes());
  params.p_f = 1e-6;

  MultiGraphOptions options;
  options.worker_budget = static_cast<uint32_t>(workers);
  options.service.cache_capacity = static_cast<size_t>(cache_capacity);
  options.service.backend.name = backend;
  options.service.backend.context.walk_kernel = walk_kernel;
  // TEA+ drains past its hop cap until Inequality (11) certifies rather
  // than falling back to walks; the (d, eps_r, delta) guarantee is the same.
  options.service.backend.context.tea_plus.drain_past_hop_cap = true;
  MultiGraphService service(store, params, seed, options);

  TenantRegistry tenants;
  CommandProcessor processor(store, service, tenants, params, current);

  // The TCP frontend shares the processor (and so the store/service/
  // tenants) with the stdin loop below; each connection gets its own
  // session.
  std::unique_ptr<SocketServer> socket_server;
  if (listen_set) {
    SocketServerOptions net;
    net.port = static_cast<uint16_t>(listen_port);
    net.num_executors = static_cast<size_t>(net_executors);
    socket_server = std::make_unique<SocketServer>(processor, net);
    if (!socket_server->Start()) {
      std::fprintf(stderr, "err cannot listen on port %llu: %s\n",
                   static_cast<unsigned long long>(listen_port),
                   socket_server->error().c_str());
      return 1;
    }
  }

  {
    const std::vector<GraphInfo> infos = store.List();
    std::printf("ok hkpr_server graphs=%zu(%s) current=%s workers=%u "
                "cache=%zu backend=%s walk-width=%u",
                infos.size(), JoinNames(infos).c_str(), current.c_str(),
                service.resolved_worker_budget(),
                static_cast<size_t>(cache_capacity), backend.c_str(),
                walk_kernel.width);
    if (socket_server != nullptr) {
      // The resolved port — with --listen=0 this is how clients learn
      // the ephemeral port.
      std::printf(" listen=%u", socket_server->port());
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  ClientSession session = processor.NewSession();
  std::string line;
  while (std::getline(std::cin, line)) {
    const CommandResult result = processor.Execute(session, line);
    if (!result.output.empty()) {
      std::fwrite(result.output.data(), 1, result.output.size(), stdout);
      std::fflush(stdout);
    }
    if (result.quit) break;
  }
  if (socket_server != nullptr) socket_server->Stop();
  return 0;
}
