// Threads x graph-size scaling of the serving stack (extension).
//
// The historical bench graph (12.5k nodes / 213k edges) fits in L2, so
// per-query work is too small to amortize cross-thread coordination and the
// thread sweep in BENCH_service.json *loses* throughput with more threads.
// This benchmark measures what the paper's production claim actually
// needs: throughput as a function of thread count on graphs that do not
// fit in cache (213k -> 1M -> 10M+ edges, the --graph-scale presets),
// through the one way the library uses more cores, service workers that
// each run whole queries: an AsyncQueryService closed loop (N clients, N
// workers) with the cache disabled, over the sharded submission queues and
// the work-stealing path; the "stolen" column shows rebalancing.
//
// Graphs are generated, or mmap'd from a cached binary CSR snapshot
// (--graph-cache=DIR). Uniform-random seeds keep the cacheless runs
// compute-bound and coalescing-free.
//
// Regression gate: after the sweep, for each graph the largest measured
// thread count T that the hardware can actually run in parallel
// (T <= hardware threads) must beat the 1-thread QPS by a floor
// (--floor=F, default 1.3 at 8 threads, prorated for smaller T). On
// hardware without real parallelism (hw = 1) the gate reports SKIPPED —
// the numbers are still emitted, honestly. Exit code 1 on violation, which
// is what turns "parallelism actually helps" into a CI invariant.
//
// Flags: --sizes=a,b,c (default small,medium,large; --smoke: small),
// --queries=N per (graph, threads) run, --threads=a,b,c (default
// 1,2,4,8), --floor=F, --graph-cache=DIR, --json=PATH
// (BENCH_scaling.json), --smoke (CI-sized run).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "graph/graph_io.h"
#include "service/async_query_service.h"

using namespace hkpr;
using namespace hkpr::bench;

namespace {

struct ScalingRow {
  std::string graph;
  uint32_t nodes = 0;
  uint64_t edges = 0;
  uint32_t threads = 0;
  uint32_t queries = 0;
  double seconds = 0.0;
  uint64_t stolen = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  // Per-stage mean latencies. Stages are disjoint, so queue+cache+compute
  // <= total.
  double queue_ms = 0.0;
  double cache_ms = 0.0;
  double compute_ms = 0.0;
  double total_ms = 0.0;
  double qps() const { return queries / (seconds + 1e-12); }
};

/// Closed loop, `threads` clients against `threads` workers, cache
/// disabled so every query is computed through the sharded queues.
double RunServicePath(const Graph& graph, const ApproxParams& params,
                      uint64_t seed, uint32_t threads,
                      const std::vector<NodeId>& seeds,
                      LatencyHistogram& latencies,
                      ServiceStatsSnapshot& stats_out) {
  ServiceOptions options;
  options.num_workers = threads;
  options.cache_capacity = 0;  // measure compute scaling, not caching
  options.max_queue_depth = 1u << 20;
  options.backend.context.tea_plus.c = 1.0;  // walk phase forced: real work
  AsyncQueryService service(graph, params, seed, options);

  WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (uint32_t c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      const ChunkRange range = ChunkBounds(seeds.size(), threads, c);
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
  for (std::thread& t : clients) t.join();
  const double seconds = timer.ElapsedSeconds();
  stats_out = service.Stats();
  return seconds;
}

void WriteScalingJson(const std::string& path, uint32_t hardware_threads,
                      const std::string& workload,
                      const std::vector<ScalingRow>& rows) {
  std::FILE* f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"serve_scaling\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hardware_threads);
  std::fprintf(f, "  \"workload\": \"%s\",\n  \"rows\": [\n", workload.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"graph\": \"%s\", \"nodes\": %u, \"edges\": %llu, "
        "\"path\": \"service\", \"threads\": %u, "
        "\"queries\": %u, \"seconds\": %.6f, \"qps\": %.1f, "
        "\"stolen\": %llu, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"queue_ms\": %.4f, \"cache_ms\": %.4f, \"compute_ms\": %.4f, "
        "\"total_ms\": %.4f}%s\n",
        r.graph.c_str(), r.nodes, static_cast<unsigned long long>(r.edges),
        r.threads, r.queries, r.seconds, r.qps(),
        static_cast<unsigned long long>(r.stolen), r.p50_ms, r.p99_ms,
        r.queue_ms, r.cache_ms, r.compute_ms, r.total_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (f != stdout) std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  std::string json_path;
  std::string cache_dir;
  std::vector<std::string> sizes = {"small", "medium", "large"};
  std::vector<uint32_t> thread_counts = {1, 2, 4, 8};
  double floor8 = 1.3;  // required 8-thread/1-thread QPS ratio
  bool smoke = false;
  bool sizes_overridden = false;
  uint32_t num_queries = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--graph-cache=", 14) == 0) {
      cache_dir = argv[i] + 14;
    }
    if (std::strncmp(argv[i], "--sizes=", 8) == 0) {
      sizes = SplitCsv(argv[i] + 8);
      sizes_overridden = true;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts.clear();
      for (const std::string& t : SplitCsv(argv[i] + 10)) {
        thread_counts.push_back(static_cast<uint32_t>(std::atoi(t.c_str())));
      }
    }
    if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      num_queries = static_cast<uint32_t>(std::atoi(argv[i] + 10));
    }
    if (std::strncmp(argv[i], "--floor=", 8) == 0) {
      floor8 = std::atof(argv[i] + 8);
    }
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke && !sizes_overridden) sizes = {"small"};
  if (num_queries == 0) num_queries = smoke ? 160 : (config.full ? 1200 : 400);

  const uint32_t hardware = HardwareThreads();
  std::printf("== Serve scaling: threads x graph size ==\n");
  std::printf("hardware threads available: %u\n", hardware);
  std::printf("preparing graphs:\n");

  bool gate_failed = false;
  bool gate_enforced = false;
  std::vector<ScalingRow> rows;
  TablePrinter table({"graph", "edges", "threads", "q/s", "speedup",
                      "stolen", "p99 ms"});
  for (const std::string& size_name : sizes) {
    const Graph graph =
        PrepareScaledGraph(size_name, cache_dir, config.rng_seed);
    const std::string graph_name = "rmat-" + size_name;

    // Serving-grade accuracy, scaled to the graph; walk phase forced so
    // every query does real work (see bench_service).
    ApproxParams params;
    params.t = 5.0;
    params.eps_r = 0.5;
    params.delta = 20.0 * DefaultDelta(graph);
    params.p_f = 1e-6;

    Rng rng(config.rng_seed);
    const std::vector<NodeId> seeds = UniformSeeds(graph, num_queries, rng);

    double base_qps = 0.0;  // 1-thread QPS
    for (uint32_t threads : thread_counts) {
      ScalingRow row;
      row.graph = graph_name;
      row.nodes = graph.NumNodes();
      row.edges = graph.NumEdges();
      row.threads = threads;
      row.queries = num_queries;
      LatencyHistogram latencies;
      ServiceStatsSnapshot stats;
      row.seconds = RunServicePath(graph, params, config.rng_seed, threads,
                                   seeds, latencies, stats);
      row.stolen = stats.stolen;
      row.p50_ms = latencies.PercentileMs(0.50);
      row.p99_ms = latencies.PercentileMs(0.99);
      // Each service is fresh per run, so its cumulative snapshot is the
      // per-run total.
      row.queue_ms = stats.queue_wait.mean_ms();
      row.cache_ms = stats.cache_lookup.mean_ms();
      row.compute_ms = stats.compute.mean_ms();
      if (stats.latency_count > 0) {
        row.total_ms = static_cast<double>(stats.traced_total_us) /
                       static_cast<double>(stats.latency_count) / 1000.0;
      }
      if (threads == 1) base_qps = row.qps();
      const double speedup = base_qps > 0.0 ? row.qps() / base_qps : 1.0;
      table.AddRow({graph_name, FmtCount(row.edges), std::to_string(threads),
                    FmtF(row.qps(), 0), FmtF(speedup, 2) + "x",
                    std::to_string(row.stolen), FmtF(row.p99_ms, 2)});
      rows.push_back(row);
    }

    // Regression gate: the largest thread count the hardware can truly
    // parallelize must beat 1 thread by the (prorated) floor.
    uint32_t gate_threads = 0;
    for (uint32_t threads : thread_counts) {
      if (threads > 1 && threads <= hardware) {
        gate_threads = std::max(gate_threads, threads);
      }
    }
    if (gate_threads == 0) {
      std::printf(
          "gate SKIPPED for %s: no measured thread count in (1, %u] "
          "(hardware threads)\n",
          graph_name.c_str(), hardware);
      continue;
    }
    // 1.3 at 8 threads, prorated linearly down to 1.0 at 1 thread.
    const double required =
        1.0 + (floor8 - 1.0) * (static_cast<double>(gate_threads) - 1.0) / 7.0;
    double one = 0.0, best = 0.0;
    for (const ScalingRow& r : rows) {
      if (r.graph != graph_name) continue;
      if (r.threads == 1) one = r.qps();
      if (r.threads == gate_threads) best = r.qps();
    }
    if (one <= 0.0 || best <= 0.0) continue;
    gate_enforced = true;
    const double ratio = best / one;
    const bool ok = ratio > required;
    std::printf("gate %s for %s: %u-thread %.0f q/s vs 1-thread %.0f q/s = "
                "%.2fx (required > %.2fx)\n",
                ok ? "PASS" : "FAIL", graph_name.c_str(), gate_threads, best,
                one, ratio, required);
    if (!ok) gate_failed = true;
  }
  table.Print();

  std::string workload = "uniform seeds, cache disabled, tea+ walk-heavy";
  WriteScalingJson(json_path, hardware, workload, rows);
  if (!gate_enforced) {
    std::printf("scaling gate not enforced (insufficient hardware "
                "parallelism); rows emitted for inspection\n");
    return 0;
  }
  return gate_failed ? 1 : 0;
}
