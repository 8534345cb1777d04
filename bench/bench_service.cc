// Cache-fronted serving throughput of the async query service (extension).
//
// Closed-loop benchmark: C client threads each submit one query and wait
// for its future before submitting the next, against an AsyncQueryService
// with C workers. The workload is Zipfian-skewed (s = 1.0 over a hot set of
// distinct seeds) — the skewed, repetitive traffic shape the result cache
// is built for.
//
// Two passes per thread count:
//   cold: fresh service, empty cache — misses dominate (hot repeats within
//         the pass already hit or coalesce, which is realistic cold traffic)
//   warm: same workload replayed on the same service — hits dominate
//
// Expected shape: warm-cache QPS several times cold QPS (acceptance: >= 3x
// at 8 threads), with the gap growing as queries get more expensive, and a
// hit rate near the workload's repeat rate.
//
// The serving backend is selectable by registry name: by default the
// benchmark is a *router sweep* over "auto" (the adaptive per-query
// backend router), "learned" (a LearnedRouter pre-trained offline from
// routing events of one pinned pass per candidate backend — the bench
// equivalent of the MultiGraphService trainer having watched live
// traffic), TEA+, HK-Relax, and Monte-Carlo — the paper's central
// comparison, now through the production query path, with the router's
// blended plan measured against every fixed backend on the same
// mixed-degree Zipfian workload (hot set = half hubs, half tail seeds, so
// the router's per-seed choice actually varies). --backend=NAME restricts
// the run to one backend.
//
// Multi-graph mode (--graphs=N): N registry datasets are published into a
// GraphStore and served through one MultiGraphService whose per-graph
// services split the worker budget; the workload interleaves per-graph
// Zipfian streams round-robin, and the emitted rows are per graph (the
// "graph" JSON field), with per-graph cache counters from StatsFor().
//
// Extra flags: --json=PATH writes results as JSON (BENCH_service.json
// trajectory); --queries=N overrides the per-pass query count;
// --backend=NAME benchmarks one registry backend (or "auto") instead of
// the sweep; --graphs=N switches to the multi-graph sweep over N
// datasets; --graph-scale=NAME (small/medium/large, see bench_common.h)
// adds an R-MAT scaling preset to the backend sweep, so the JSON carries
// large-graph rows (per-row "graph" field) next to the historical
// small-graph ones; --walk-width=N sets the walk kernel's interleave
// width for every backend in the sweep; --hedge appends a
// hedged-vs-unhedged tail-latency comparison (cache disabled so every
// query computes, served by the pre-trained learned router; phases
// "hedged"/"unhedged", hedged/hedge_wins counters per row) — kept out of
// the default smoke run because hedge computes intentionally exceed the
// query count; --smoke shrinks the router sweep to a seconds-long CI
// validation run (tiny query count, one thread count) that still emits
// every row; --trace-overhead skips the sweep and instead runs alternating
// traced/untraced reps of the smoke workload, exiting non-zero when stage
// tracing costs >= 2% median QPS (the telemetry hot-path regression gate).
//
// Every JSON row also carries per-stage mean latencies (queue_ms, cache_ms,
// compute_ms, total_ms) from the service's stage-tracing counters; the
// stages are disjoint, so their sum is <= total_ms per row (CI asserts
// this on the smoke run).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "hkpr/backend.h"
#include "hkpr/cost_model.h"
#include "parallel/parallel_for.h"
#include "service/multi_graph_service.h"

using namespace hkpr;
using namespace hkpr::bench;

namespace {

// Walk-kernel interleave width (--walk-width=), applied to every service
// constructed by the sweep so an A/B across widths is one flag.
WalkKernelOptions g_walk_kernel;

struct ServiceRow {
  std::string backend;
  std::string graph;
  uint32_t threads;
  std::string phase;  // "cold" or "warm"
  uint32_t queries;
  double seconds;
  uint64_t cache_hits;
  uint64_t cache_misses;
  uint64_t coalesced;
  uint64_t computed;
  double p50_ms;
  double p95_ms;
  double p99_ms;
  // Hedge counters for this pass (zero outside --hedge rows): fired
  // runner-up requests and how many of them beat their primary.
  uint64_t hedged = 0;
  uint64_t hedge_wins = 0;
  // Exact compute-stage percentiles over the pass's routing events
  // (--hedge rows only; zero elsewhere): the winning side's compute time
  // per query, so a hedge win shows up as the runner-up's fast compute
  // replacing the primary's slow one — the tail hedging exists to cut.
  double compute_p95_ms = 0.0;
  double compute_p99_ms = 0.0;
  // Per-stage mean latencies for this pass, from the service's exact
  // stage-total counters (after - before diffs, so the cumulative service
  // histogram doesn't smear passes into each other). Zero when tracing is
  // disabled. The stages are disjoint sub-intervals of each query's
  // lifetime, so queue_ms + cache_ms + compute_ms <= total_ms per row.
  double queue_ms = 0.0;
  double cache_ms = 0.0;
  double compute_ms = 0.0;
  double total_ms = 0.0;
  double qps() const { return queries / (seconds + 1e-12); }
};

/// Mean over the pass window [before, after] of one stage, in ms.
double StageMeanMs(const StageLatencySnapshot& after,
                   const StageLatencySnapshot& before) {
  const uint64_t count = after.count - before.count;
  if (count == 0) return 0.0;
  return static_cast<double>(after.total_us - before.total_us) /
         static_cast<double>(count) / 1000.0;
}

/// Runs one closed-loop pass: `clients` threads split `seeds` contiguously,
/// each submitting its share one query at a time (submit -> wait -> next).
/// Per-request latencies are recorded into `latencies` — a per-pass
/// histogram, because the service's own histogram is cumulative over its
/// lifetime and would smear the cold pass into the warm percentiles.
double RunClosedLoop(AsyncQueryService& service, const std::vector<NodeId>& seeds,
                     uint32_t clients, LatencyHistogram& latencies) {
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Same contiguous partition as the pool's, for determinism of the
      // per-client workload split.
      const ChunkRange range = ChunkBounds(seeds.size(), clients, c);
      for (size_t i = range.begin; i < range.end; ++i) {
        QueryHandle handle = service.Submit(seeds[i]);
        const QueryResult result = handle.result.get();
        if (result.status != QueryStatus::kOk) {
          std::fprintf(stderr, "unexpected query status %s\n",
                       QueryStatusName(result.status));
          std::abort();
        }
        latencies.Record(result.latency_ms / 1000.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return timer.ElapsedSeconds();
}

/// Multi-graph closed-loop pass over an interleaved (graph, seed) stream;
/// latencies are recorded into the submitting graph's histogram.
double RunMultiClosedLoop(
    MultiGraphService& service,
    const std::vector<std::pair<std::string, NodeId>>& items, uint32_t clients,
    std::map<std::string, std::unique_ptr<LatencyHistogram>>& latencies) {
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const ChunkRange range = ChunkBounds(items.size(), clients, c);
      for (size_t i = range.begin; i < range.end; ++i) {
        QueryHandle handle = service.Submit(items[i].first, items[i].second);
        const QueryResult result = handle.result.get();
        if (result.status != QueryStatus::kOk) {
          std::fprintf(stderr, "unexpected query status %s on graph %s\n",
                       QueryStatusName(result.status),
                       items[i].first.c_str());
          std::abort();
        }
        latencies.at(items[i].first)->Record(result.latency_ms / 1000.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return timer.ElapsedSeconds();
}

ServiceRow MakeRow(const std::string& backend, const std::string& graph,
                   uint32_t threads, const std::string& phase,
                   uint32_t queries, double seconds,
                   const ServiceStatsSnapshot& after,
                   const ServiceStatsSnapshot& before,
                   const LatencyHistogram& latencies) {
  ServiceRow row;
  row.backend = backend;
  row.graph = graph;
  row.threads = threads;
  row.phase = phase;
  row.queries = queries;
  row.seconds = seconds;
  row.cache_hits = after.cache_hits - before.cache_hits;
  row.cache_misses = after.cache_misses - before.cache_misses;
  row.coalesced = after.coalesced - before.coalesced;
  row.computed = after.computed - before.computed;
  row.p50_ms = latencies.PercentileMs(0.50);
  row.p95_ms = latencies.PercentileMs(0.95);
  row.p99_ms = latencies.PercentileMs(0.99);
  row.hedged = after.hedged - before.hedged;
  row.hedge_wins = after.hedge_wins - before.hedge_wins;
  if (after.stage_tracing) {
    row.queue_ms = StageMeanMs(after.queue_wait, before.queue_wait);
    row.cache_ms = StageMeanMs(after.cache_lookup, before.cache_lookup);
    row.compute_ms = StageMeanMs(after.compute, before.compute);
    const uint64_t traced = after.latency_count - before.latency_count;
    if (traced > 0) {
      row.total_ms =
          static_cast<double>(after.traced_total_us - before.traced_total_us) /
          static_cast<double>(traced) / 1000.0;
    }
  }
  return row;
}

void WriteServiceJson(const std::string& path, const std::string& benchmark,
                      const std::string& dataset_label, uint32_t nodes,
                      uint64_t edges, const std::string& workload,
                      const std::vector<ServiceRow>& rows) {
  std::FILE* f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n", benchmark.c_str());
  std::fprintf(f,
               "  \"dataset\": \"%s\",\n  \"nodes\": %u,\n  \"edges\": %llu,\n",
               dataset_label.c_str(), nodes,
               static_cast<unsigned long long>(edges));
  std::fprintf(f, "  \"workload\": \"%s\",\n  \"rows\": [\n", workload.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ServiceRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"backend\": \"%s\", \"graph\": \"%s\", \"threads\": %u, "
        "\"phase\": \"%s\", \"queries\": %u, "
        "\"seconds\": %.6f, \"qps\": %.1f, \"cache_hits\": %llu, "
        "\"cache_misses\": %llu, \"coalesced\": %llu, \"computed\": %llu, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"hedged\": %llu, \"hedge_wins\": %llu, "
        "\"compute_p95_ms\": %.4f, \"compute_p99_ms\": %.4f, "
        "\"queue_ms\": %.4f, \"cache_ms\": %.4f, \"compute_ms\": %.4f, "
        "\"total_ms\": %.4f}%s\n",
        r.backend.c_str(), r.graph.c_str(), r.threads, r.phase.c_str(),
        r.queries, r.seconds, r.qps(),
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.cache_misses),
        static_cast<unsigned long long>(r.coalesced),
        static_cast<unsigned long long>(r.computed), r.p50_ms, r.p95_ms,
        r.p99_ms, static_cast<unsigned long long>(r.hedged),
        static_cast<unsigned long long>(r.hedge_wins), r.compute_p95_ms,
        r.compute_p99_ms, r.queue_ms, r.cache_ms, r.compute_ms, r.total_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (f != stdout) std::fclose(f);
}

/// Trains a LearnedRouter offline for one graph: a pinned pass per
/// candidate backend over a slice of the workload (cache disabled so
/// every query computes and logs), with the drained routing events fed
/// straight into the cost model — the bench-side equivalent of the
/// MultiGraphService trainer having watched live traffic from every
/// backend. Exploration is off: the measurement arms should show the
/// model's argmin choice, not epsilon noise.
std::shared_ptr<LearnedRouter> TrainRouterOffline(
    const Graph& graph, const ApproxParams& params, uint64_t rng_seed,
    const std::vector<NodeId>& seeds, uint32_t priming_queries) {
  LearnedRouterOptions router_options;
  router_options.explore_epsilon = 0.0;
  auto router = std::make_shared<LearnedRouter>(router_options);
  const size_t take =
      std::min<size_t>(seeds.size(), priming_queries);
  for (const std::string& backend : router->options().candidates) {
    ServiceOptions opts;
    opts.backend.name = backend;
    opts.backend.context.tea_plus.c = 1.0;
    opts.backend.context.walk_kernel = g_walk_kernel;
    opts.cache_capacity = 0;
    opts.max_queue_depth = 1u << 20;
    opts.num_workers = 2;
    AsyncQueryService service(graph, params, rng_seed, opts);
    for (size_t i = 0; i < take; ++i) {
      const QueryResult result = service.Submit(seeds[i]).result.get();
      if (result.status != QueryStatus::kOk) {
        std::fprintf(stderr, "priming query failed on %s\n", backend.c_str());
        std::abort();
      }
    }
    const std::vector<RoutingEvent> events = service.DrainRoutingEvents();
    router->Observe(events);
  }
  if (!router->trained()) {
    std::fprintf(stderr,
                 "learned router undertrained after priming (%u queries per "
                 "backend) — learned rows will show the rule fallback\n",
                 static_cast<uint32_t>(take));
  }
  return router;
}

/// The --hedge comparison: the same mixed-degree Zipfian workload served
/// twice by the pre-trained learned router with the cache disabled (tail
/// latency of *computes*, not hits) — once plain, once with hedged
/// requests armed — appended as phase "unhedged" / "hedged" rows. Hedge
/// computes intentionally exceed the query count, which is why these rows
/// live outside the default smoke sweep CI asserts completeness on.
void RunHedgeSweep(const BenchConfig& config, uint32_t num_queries, bool smoke,
                   std::vector<ServiceRow>& rows) {
  Dataset dataset = MakeDataset("twitter", config.scale, config.rng_seed);
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 20.0 * DefaultDelta(dataset.graph);
  params.p_f = 1e-6;
  // A distinct stream from the sweep's so the two sections don't share
  // cache-warming history through the rng. Twice the sweep's query count:
  // tail percentiles over log2 histogram buckets need the samples.
  const uint32_t queries = 2 * num_queries;
  Rng rng(config.rng_seed + 1);
  const std::vector<NodeId> seeds =
      MixedDegreeZipfianSeeds(dataset.graph, queries, 256, 1.0, rng);
  std::shared_ptr<LearnedRouter> router = TrainRouterOffline(
      dataset.graph, params, config.rng_seed, seeds, smoke ? 100u : 300u);

  // One closed-loop client, two workers: the client's next query waits on
  // the previous one, so a rescued tail shows up directly in both the
  // percentiles and the throughput, and the spare worker is the capacity
  // the hedge runs on (the deployment shape hedging assumes).
  const uint32_t clients = 1;
  std::printf("== Hedged vs unhedged tail latency (learned router, "
              "cache off) ==\n");
  TablePrinter table({"phase", "threads", "q/s", "p50 ms", "p99 ms",
                      "cmp p95 ms", "cmp p99 ms", "hedged", "wins"});
  for (const bool hedged : {false, true}) {
    ServiceOptions opts;
    opts.backend.name = std::string(kAutoBackend);
    opts.backend.context.tea_plus.c = 1.0;
    opts.backend.context.walk_kernel = g_walk_kernel;
    opts.cache_capacity = 0;
    opts.max_queue_depth = 1u << 20;
    opts.num_workers = 2;
    opts.router = router;
    opts.hedge.enabled = hedged;
    // Floor the trigger at 1ms: only the genuine tail hedges, so the
    // backup computes cost a percent or two of throughput instead of
    // racing every moderately slow query for the same cores.
    opts.hedge.min_trigger_us = 1000;
    // Room for every event of the pass: the compute percentiles below
    // want the full distribution, not the ring's last 1024.
    opts.telemetry.routing_log_capacity = 8192;
    AsyncQueryService service(dataset.graph, params, config.rng_seed, opts);

    // A short unmeasured warmup so the first arm doesn't pay allocator /
    // page-cache warming the second arm inherits for free.
    const std::vector<NodeId> warmup(seeds.begin(),
                                     seeds.begin() + seeds.size() / 8);
    LatencyHistogram scratch;
    RunClosedLoop(service, warmup, clients, scratch);
    (void)service.DrainRoutingEvents();
    const ServiceStatsSnapshot before = service.Stats();
    LatencyHistogram latencies;
    const double seconds = RunClosedLoop(service, seeds, clients, latencies);
    const ServiceStatsSnapshot after = service.Stats();
    ServiceRow row = MakeRow("learned", dataset.name, clients,
                             hedged ? "hedged" : "unhedged", queries, seconds,
                             after, before, latencies);
    // Exact compute percentiles from the pass's routing events: one event
    // per completed query, stamped with the *winning* side's compute span.
    std::vector<RoutingEvent> events = service.DrainRoutingEvents();
    std::vector<uint64_t> compute_us;
    compute_us.reserve(events.size());
    for (const RoutingEvent& event : events) {
      compute_us.push_back(event.compute_end_us - event.compute_begin_us);
    }
    std::sort(compute_us.begin(), compute_us.end());
    const auto pct = [&](double q) -> double {
      if (compute_us.empty()) return 0.0;
      const size_t idx = std::min(
          compute_us.size() - 1,
          static_cast<size_t>(q * static_cast<double>(compute_us.size())));
      return static_cast<double>(compute_us[idx]) / 1000.0;
    };
    row.compute_p95_ms = pct(0.95);
    row.compute_p99_ms = pct(0.99);
    rows.push_back(row);
    table.AddRow({row.phase, std::to_string(clients), FmtF(row.qps(), 0),
                  FmtF(row.p50_ms, 2), FmtF(row.p99_ms, 2),
                  FmtF(row.compute_p95_ms, 2), FmtF(row.compute_p99_ms, 2),
                  std::to_string(row.hedged), std::to_string(row.hedge_wins)});
  }
  table.Print();
}

/// The multi-graph sweep: N datasets behind one MultiGraphService, the
/// worker budget split across their per-graph services, per-graph rows.
int RunMultiGraphSweep(const BenchConfig& config, const std::string& json_path,
                       const std::string& backend, uint32_t num_graphs,
                       uint32_t num_queries) {
  const std::vector<std::string>& all_names = DatasetNames();
  if (num_graphs > all_names.size()) {
    std::printf("clamping --graphs=%u to the %zu registry datasets\n",
                num_graphs, all_names.size());
    num_graphs = static_cast<uint32_t>(all_names.size());
  }
  Rng rng(config.rng_seed);

  GraphStore store;
  std::vector<std::string> names;
  std::string joined_names;
  uint32_t total_nodes = 0;
  uint64_t total_edges = 0;
  for (uint32_t i = 0; i < num_graphs; ++i) {
    Dataset dataset =
        MakeDataset(all_names[i], config.scale, config.rng_seed + i);
    total_nodes += dataset.graph.NumNodes();
    total_edges += dataset.graph.NumEdges();
    names.push_back(dataset.name);
    if (!joined_names.empty()) joined_names += ",";
    joined_names += dataset.name;
    store.Publish(dataset.name, std::move(dataset.graph));
  }
  std::printf("serving %u graphs (%s), %u nodes / %llu edges total\n",
              num_graphs, joined_names.c_str(), total_nodes,
              static_cast<unsigned long long>(total_edges));

  // One parameter set for every graph, scaled to the first (see the
  // single-graph sweep for the serving-grade accuracy rationale).
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 20.0 * DefaultDelta(*store.Get(names.front()).graph);
  params.p_f = 1e-6;

  // Interleave per-graph Zipfian streams round-robin: every graph gets
  // num_queries / N queries, and each client's contiguous share mixes
  // graphs — the sharding path is exercised on every submission.
  const uint32_t per_graph = std::max(1u, num_queries / num_graphs);
  std::vector<std::vector<NodeId>> streams;
  for (const std::string& name : names) {
    streams.push_back(
        ZipfianSeeds(*store.Get(name).graph, per_graph, 256, 1.0, rng));
  }
  std::vector<std::pair<std::string, NodeId>> items;
  items.reserve(static_cast<size_t>(per_graph) * num_graphs);
  for (uint32_t q = 0; q < per_graph; ++q) {
    for (uint32_t g = 0; g < num_graphs; ++g) {
      items.emplace_back(names[g], streams[g][q]);
    }
  }

  const std::vector<uint32_t> thread_counts = {1, 4, 8};
  std::vector<ServiceRow> rows;
  TablePrinter table({"graph", "threads", "cold q/s", "warm q/s", "warm gain",
                      "warm hit%", "p50 ms", "p99 ms"});
  for (uint32_t threads : thread_counts) {
    MultiGraphOptions options;
    options.worker_budget = threads;
    options.service.backend.name = backend;
    options.service.backend.context.tea_plus.c = 1.0;
    options.service.backend.context.walk_kernel = g_walk_kernel;
    options.service.cache_capacity = 8192;
    options.service.max_queue_depth = 1u << 20;
    MultiGraphService service(store, params, config.rng_seed, options);
    // Pre-build every per-graph service so the cold pass measures query
    // cost, not one-time estimator/worker construction (the single-graph
    // sweep likewise constructs its service before the timer).
    for (const std::string& name : names) service.ServiceFor(name);

    std::map<std::string, ServiceStatsSnapshot> at_start;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> cold_lat,
        warm_lat;
    for (const std::string& name : names) {
      at_start[name] = service.StatsFor(name);
      cold_lat[name] = std::make_unique<LatencyHistogram>();
      warm_lat[name] = std::make_unique<LatencyHistogram>();
    }
    const double cold_s = RunMultiClosedLoop(service, items, threads, cold_lat);
    std::map<std::string, ServiceStatsSnapshot> after_cold;
    for (const std::string& name : names) {
      after_cold[name] = service.StatsFor(name);
    }
    const double warm_s = RunMultiClosedLoop(service, items, threads, warm_lat);
    for (const std::string& name : names) {
      const ServiceStatsSnapshot after_warm = service.StatsFor(name);
      rows.push_back(MakeRow(backend, name, threads, "cold", per_graph, cold_s,
                             after_cold[name], at_start[name],
                             *cold_lat[name]));
      rows.push_back(MakeRow(backend, name, threads, "warm", per_graph, warm_s,
                             after_warm, after_cold[name], *warm_lat[name]));
      const ServiceRow& warm = rows.back();
      const double hit_rate =
          100.0 * static_cast<double>(warm.cache_hits + warm.coalesced) /
          static_cast<double>(per_graph);
      table.AddRow({name, std::to_string(threads), FmtF(per_graph / cold_s, 0),
                    FmtF(per_graph / warm_s, 0),
                    FmtF(cold_s / (warm_s + 1e-12), 1) + "x",
                    FmtF(hit_rate, 1), FmtF(warm.p50_ms, 2),
                    FmtF(warm.p99_ms, 2)});
    }
  }
  table.Print();
  WriteServiceJson(json_path, "multi_graph_service_throughput",
                   "multi(" + std::to_string(num_graphs) + " registry graphs)",
                   total_nodes, total_edges,
                   "zipfian s=1.0, round-robin across graphs", rows);
  return 0;
}

/// Trace-overhead guard: alternating traced/untraced reps of the smoke
/// workload (cold pass on a fresh service + warm replay, closed loop), and
/// the median QPS of each arm compared. Exits non-zero when tracing costs
/// >= 2% QPS — the regression gate for keeping the telemetry hot path
/// wait-free and cheap.
int RunTraceOverheadGuard(const BenchConfig& config, uint32_t num_queries) {
  Rng rng(config.rng_seed);
  Dataset dataset = MakeDataset("twitter", config.scale, config.rng_seed);
  PrintDatasetBanner(dataset);

  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 20.0 * DefaultDelta(dataset.graph);
  params.p_f = 1e-6;
  const uint32_t threads = 2;
  const std::vector<NodeId> seeds =
      MixedDegreeZipfianSeeds(dataset.graph, num_queries, 256, 1.0, rng);

  // Alternate arms (traced first) so machine drift hits both equally; the
  // median of 5 reps per arm shrugs off stragglers.
  constexpr int kReps = 5;
  std::vector<double> traced_qps, untraced_qps;
  for (int rep = 0; rep < 2 * kReps; ++rep) {
    const bool traced = rep % 2 == 0;
    ServiceOptions opts;
    opts.backend.name = "tea+";
    opts.backend.context.tea_plus.c = 1.0;
    opts.backend.context.walk_kernel = g_walk_kernel;
    opts.cache_capacity = 8192;
    opts.max_queue_depth = 1u << 20;
    opts.num_workers = threads;
    opts.telemetry.enabled = traced;
    AsyncQueryService service(dataset.graph, params, config.rng_seed, opts);

    LatencyHistogram cold_lat, warm_lat;
    WallTimer timer;
    RunClosedLoop(service, seeds, threads, cold_lat);
    RunClosedLoop(service, seeds, threads, warm_lat);
    const double seconds = timer.ElapsedSeconds();
    const double qps = 2.0 * num_queries / (seconds + 1e-12);
    (traced ? traced_qps : untraced_qps).push_back(qps);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double on = median(traced_qps);
  const double off = median(untraced_qps);
  const double overhead = (off - on) / (off + 1e-12);
  std::printf(
      "trace overhead guard: traced=%.0f q/s untraced=%.0f q/s "
      "overhead=%.2f%% (threshold 2%%)\n",
      on, off, 100.0 * overhead);
  if (overhead >= 0.02) {
    std::fprintf(stderr,
                 "FAIL: tracing costs %.2f%% QPS (>= 2%% threshold)\n",
                 100.0 * overhead);
    return 1;
  }
  std::printf("trace overhead guard: PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  std::string json_path;
  std::string backend_flag;
  std::string graph_scale;
  uint32_t num_graphs = 0;
  bool smoke = false;
  bool trace_overhead = false;
  bool hedge = false;
  uint32_t num_queries = config.full ? 4000 : 1500;
  bool queries_overridden = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      num_queries = static_cast<uint32_t>(std::atoi(argv[i] + 10));
      queries_overridden = true;
    }
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      backend_flag = argv[i] + 10;
    }
    if (std::strncmp(argv[i], "--graphs=", 9) == 0) {
      num_graphs = static_cast<uint32_t>(std::atoi(argv[i] + 9));
    }
    if (std::strncmp(argv[i], "--graph-scale=", 14) == 0) {
      graph_scale = argv[i] + 14;
    }
    if (std::strncmp(argv[i], "--walk-width=", 13) == 0) {
      const int width = std::atoi(argv[i] + 13);
      if (width < 1 || width > static_cast<int>(kMaxWalkKernelWidth)) {
        std::fprintf(stderr, "--walk-width must be in [1, %u], got \"%s\"\n",
                     kMaxWalkKernelWidth, argv[i] + 13);
        return 1;
      }
      g_walk_kernel.width = static_cast<uint32_t>(width);
    }
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--trace-overhead") == 0) trace_overhead = true;
    if (std::strcmp(argv[i], "--hedge") == 0) hedge = true;
  }
  if (smoke && !queries_overridden) num_queries = 200;

  if (trace_overhead) {
    std::printf("== Trace overhead guard (traced vs untraced service) ==\n");
    return RunTraceOverheadGuard(config, num_queries);
  }

  // Default sweep: the rule router and the pre-trained learned router
  // against every fixed backend of the paper's central comparison,
  // through the serving path.
  std::vector<std::string> backends = {"auto", "learned", "tea+", "hk-relax",
                                       "monte-carlo"};
  if (!backend_flag.empty()) backends = {backend_flag};
  for (const std::string& name : backends) {
    if (name != kAutoBackend && name != "learned" &&
        !EstimatorRegistry::Global().Contains(name)) {
      std::fprintf(stderr,
                   "unknown backend \"%s\" (available: auto, learned, %s)\n",
                   name.c_str(),
                   EstimatorRegistry::Global().JoinedNames(", ").c_str());
      return 1;
    }
  }

  std::printf("== Async service throughput (cache-fronted serving) ==\n");
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());

  if (num_graphs >= 1) {
    // Any --graphs=N (including 1) selects the multi-graph sweep, and it
    // runs one backend — a sweep across backends x graphs x threads would
    // conflate the two axes.
    return RunMultiGraphSweep(config, json_path,
                              backend_flag.empty() ? "tea+" : backend_flag,
                              num_graphs, num_queries);
  }

  Rng rng(config.rng_seed);
  std::vector<Dataset> datasets;
  datasets.push_back(MakeDataset("twitter", config.scale, config.rng_seed));
  if (!graph_scale.empty()) {
    datasets.push_back(MakeScaledGraph(graph_scale, config.rng_seed));
  }

  const std::vector<uint32_t> thread_counts =
      smoke ? std::vector<uint32_t>{2} : std::vector<uint32_t>{1, 4, 8};
  std::vector<ServiceRow> rows;
  std::string dataset_label;
  uint32_t total_nodes = 0;
  uint64_t total_edges = 0;
  for (const Dataset& dataset : datasets) {
    PrintDatasetBanner(dataset);
    if (!dataset_label.empty()) dataset_label += ",";
    dataset_label += dataset.name;
    total_nodes += dataset.graph.NumNodes();
    total_edges += dataset.graph.NumEdges();
    // Scaling presets get proportionally fewer queries (per-query cost
    // grows with the graph); each row records its own query count.
    const uint32_t queries = &dataset == &datasets.front()
                                 ? num_queries
                                 : std::max(100u, num_queries / 5);

    // Serving-grade accuracy (coarse delta as in bench_parallel's serving
    // section), walk phase forced so every computed query does real work.
    ApproxParams params;
    params.t = 5.0;
    params.eps_r = 0.5;
    params.delta = 20.0 * DefaultDelta(dataset.graph);
    params.p_f = 1e-6;
    ServiceOptions options;
    options.backend.context.tea_plus.c = 1.0;
    options.backend.context.walk_kernel = g_walk_kernel;
    options.cache_capacity = 8192;
    options.max_queue_depth = 1u << 20;  // closed loop: no admission pressure

    // One mixed-degree Zipfian workload shared by every backend and thread
    // count, so rows are comparable: 256 distinct hot seeds (half of them
    // the graph's top hubs, half tail nodes) keeps cold passes
    // compute-bound AND spans the degree classes the router discriminates
    // on — on a uniform hot set "auto" would collapse to one backend.
    const std::vector<NodeId> seeds =
        MixedDegreeZipfianSeeds(dataset.graph, queries, 256, 1.0, rng);

    // The "learned" arm serves through a cold-start LearnedRouter: with
    // no observations it falls back per-decision to the rule policy, so
    // its rows are the guarantee that installing the learned router on a
    // fresh service never regresses QPS vs "auto" (the cold-start-safety
    // acceptance comparison). The *trained* model is measured in the
    // --hedge section, where it serves a cache-off compute workload.
    std::shared_ptr<LearnedRouter> learned;
    if (std::find(backends.begin(), backends.end(), "learned") !=
        backends.end()) {
      LearnedRouterOptions router_options;
      router_options.explore_epsilon = 0.0;
      learned = std::make_shared<LearnedRouter>(router_options);
    }

    TablePrinter table({"backend", "threads", "cold q/s", "warm q/s",
                        "warm gain", "warm hit%", "p50 ms", "p99 ms"});
    for (const std::string& backend : backends) {
      for (uint32_t threads : thread_counts) {
        ServiceOptions opts = options;
        opts.backend.name =
            backend == "learned" ? std::string(kAutoBackend) : backend;
        if (backend == "learned") opts.router = learned;
        opts.num_workers = threads;
        AsyncQueryService service(dataset.graph, params, config.rng_seed,
                                  opts);

        const ServiceStatsSnapshot at_start = service.Stats();
        LatencyHistogram cold_latencies;
        const double cold_s =
            RunClosedLoop(service, seeds, threads, cold_latencies);
        const ServiceStatsSnapshot after_cold = service.Stats();
        LatencyHistogram warm_latencies;
        const double warm_s =
            RunClosedLoop(service, seeds, threads, warm_latencies);
        const ServiceStatsSnapshot after_warm = service.Stats();

        rows.push_back(MakeRow(backend, dataset.name, threads, "cold",
                               queries, cold_s, after_cold, at_start,
                               cold_latencies));
        rows.push_back(MakeRow(backend, dataset.name, threads, "warm",
                               queries, warm_s, after_warm, after_cold,
                               warm_latencies));
        const ServiceRow& warm = rows.back();
        const double hit_rate =
            100.0 * static_cast<double>(warm.cache_hits + warm.coalesced) /
            static_cast<double>(queries);
        table.AddRow({backend, std::to_string(threads),
                      FmtF(queries / cold_s, 0), FmtF(queries / warm_s, 0),
                      FmtF(cold_s / (warm_s + 1e-12), 1) + "x",
                      FmtF(hit_rate, 1), FmtF(warm.p50_ms, 2),
                      FmtF(warm.p99_ms, 2)});
      }
    }
    table.Print();
  }
  if (hedge) RunHedgeSweep(config, num_queries, smoke, rows);
  WriteServiceJson(json_path, "async_service_throughput", dataset_label,
                   total_nodes, total_edges,
                   "mixed-degree zipfian s=1.0 (hub/tail hot set)", rows);
  return 0;
}
