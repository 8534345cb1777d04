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
// backend router), TEA+, HK-Relax, and Monte-Carlo — the paper's central
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
// width for every backend in the sweep; --smoke shrinks the router sweep
// to a seconds-long CI validation run (tiny query count, one thread count)
// that still emits every row. The shared --full, --seeds=N and --rng=S
// flags are accepted too; any other argument exits 1 with the flag list.
//
// The JSON records the machine's hardware thread count at the top level.
// Every row also carries per-stage mean latencies (queue_ms, cache_ms,
// compute_ms, total_ms) from the service's stage counters; the stages are
// disjoint, so their sum is <= total_ms per row (CI asserts this on the
// smoke run).
//
// Regenerate the committed numbers with
//   ./build/bench_service --json=BENCH_service.json

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
  // Per-stage mean latencies for this pass, from the service's exact
  // stage-total counters (after - before diffs, so the cumulative service
  // histogram doesn't smear passes into each other), each averaged over
  // every completed query of the pass — cache hits contribute zero
  // compute. Zero when tracing is disabled. The stages are disjoint
  // sub-intervals of each query's lifetime, so queue_ms + cache_ms +
  // compute_ms <= total_ms per row.
  double queue_ms = 0.0;
  double cache_ms = 0.0;
  double compute_ms = 0.0;
  double total_ms = 0.0;
  double qps() const { return queries / (seconds + 1e-12); }
};

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
  const uint64_t traced = after.latency_count - before.latency_count;
  if (traced > 0) {
    // Not the compute stage's own count, which covers computed queries
    // only: one denominator keeps the columns a decomposition of total_ms.
    const auto mean_ms = [&](uint64_t after_us, uint64_t before_us) {
      return static_cast<double>(after_us - before_us) /
             static_cast<double>(traced) / 1000.0;
    };
    row.queue_ms =
        mean_ms(after.queue_wait.total_us, before.queue_wait.total_us);
    row.cache_ms =
        mean_ms(after.cache_lookup.total_us, before.cache_lookup.total_us);
    row.compute_ms = mean_ms(after.compute.total_us, before.compute.total_us);
    row.total_ms = mean_ms(after.traced_total_us, before.traced_total_us);
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
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
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
        "\"queue_ms\": %.4f, \"cache_ms\": %.4f, \"compute_ms\": %.4f, "
        "\"total_ms\": %.4f}%s\n",
        r.backend.c_str(), r.graph.c_str(), r.threads, r.phase.c_str(),
        r.queries, r.seconds, r.qps(),
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.cache_misses),
        static_cast<unsigned long long>(r.coalesced),
        static_cast<unsigned long long>(r.computed), r.p50_ms, r.p95_ms,
        r.p99_ms, r.queue_ms, r.cache_ms, r.compute_ms, r.total_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (f != stdout) std::fclose(f);
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

constexpr const char* kUsage =
    "usage: bench_service [--json=PATH] [--queries=N] [--backend=NAME|auto]\n"
    "                     [--graphs=N] [--graph-scale=small|medium|large]\n"
    "                     [--walk-width=N] [--smoke]\n"
    "                     [--full] [--seeds=N] [--rng=S] [--help]\n";

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string backend_flag;
  std::string graph_scale;
  uint32_t num_graphs = 0;
  bool smoke = false;
  uint32_t num_queries = 0;
  bool queries_overridden = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      num_queries = static_cast<uint32_t>(std::atoi(arg + 10));
      queries_overridden = true;
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      backend_flag = arg + 10;
    } else if (std::strncmp(arg, "--graphs=", 9) == 0) {
      num_graphs = static_cast<uint32_t>(std::atoi(arg + 9));
    } else if (std::strncmp(arg, "--graph-scale=", 14) == 0) {
      graph_scale = arg + 14;
    } else if (std::strncmp(arg, "--walk-width=", 13) == 0) {
      const int width = std::atoi(arg + 13);
      if (width < 1 || width > static_cast<int>(kMaxWalkKernelWidth)) {
        std::fprintf(stderr, "--walk-width must be in [1, %u], got \"%s\"\n",
                     kMaxWalkKernelWidth, arg + 13);
        return 1;
      }
      g_walk_kernel.width = static_cast<uint32_t>(width);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("%s", kUsage);
      return 0;
    } else if (std::strcmp(arg, "--full") != 0 &&
               std::strncmp(arg, "--seeds=", 8) != 0 &&
               std::strncmp(arg, "--rng=", 6) != 0) {
      // A typo'd or unsupported flag must not quietly run the default
      // sweep. The shared flags are parsed by BenchConfig::FromArgs below.
      std::fprintf(stderr, "unknown flag \"%s\"\n%s", arg, kUsage);
      return 1;
    }
  }
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  if (!queries_overridden) {
    num_queries = smoke ? 200 : config.full ? 4000 : 1500;
  }

  // Default sweep: the rule router against every fixed backend of the
  // paper's central comparison, through the serving path.
  std::vector<std::string> backends = {"auto", "tea+", "hk-relax",
                                       "monte-carlo"};
  if (!backend_flag.empty()) backends = {backend_flag};
  for (const std::string& name : backends) {
    if (name != kAutoBackend && !EstimatorRegistry::Global().Contains(name)) {
      std::fprintf(stderr, "unknown backend \"%s\" (available: auto, %s)\n",
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

    TablePrinter table({"backend", "threads", "cold q/s", "warm q/s",
                        "warm gain", "warm hit%", "p50 ms", "p99 ms"});
    for (const std::string& backend : backends) {
      for (uint32_t threads : thread_counts) {
        ServiceOptions opts = options;
        opts.backend.name = backend;
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
  WriteServiceJson(json_path, "async_service_throughput", dataset_label,
                   total_nodes, total_edges,
                   "mixed-degree zipfian s=1.0 (hub/tail hot set)", rows);
  return 0;
}
