// Parallel scalability of the walk phases (extension; cf. Shun et al.
// VLDB'16 referenced in Section 6 as future work for TEA/TEA+), plus the
// serving-style repeated-query throughput of the persistent query engine.
//
// Expected shape: near-linear speedup of Monte-Carlo with thread count
// (walks dominate); TEA+ speedup limited by its sequential push phase
// (Amdahl), most visible in walk-heavy configurations (small c). For the
// repeated-query section, the pool avoids per-query thread spawns and the
// reused workspaces avoid per-query allocation, so pooled throughput should
// beat spawn-per-call by a margin that grows with the thread count.
//
// Extra flags: --json=PATH writes the repeated-query results as JSON (for
// BENCH_*.json trajectories), with the hardware thread count and the
// command line that produced them; --graph-scale=NAME (small/medium/large,
// see bench_common.h) adds an R-MAT scaling preset to the repeated-query
// sweep, so the JSON carries large-graph rows next to the historical
// small-graph ones. The clustering speedup sections stay on the primary
// dataset — at fine delta they would take hours on the large presets.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/queries.h"
#include "hkpr/tea_plus.h"
#include "hkpr/workspace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

using namespace hkpr;
using namespace hkpr::bench;

namespace {

/// One row of the repeated-query throughput comparison.
struct ThroughputRow {
  std::string graph;
  std::string mode;  // "spawn", "pool", "batch"
  uint32_t threads;
  uint32_t queries;
  double seconds;
  double qps() const { return queries / (seconds + 1e-12); }
};

/// Runs `num_queries` single-seed TEA+ queries, cycling through `seeds`.
template <typename QueryFn>
double TimeQueries(uint32_t num_queries, const std::vector<NodeId>& seeds,
                   QueryFn&& query) {
  WallTimer timer;
  for (uint32_t i = 0; i < num_queries; ++i) {
    query(seeds[i % seeds.size()]);
  }
  return timer.ElapsedSeconds();
}

void WriteThroughputJson(const std::string& path, const std::string& command,
                         const std::vector<Dataset>& datasets,
                         uint32_t num_queries,
                         const std::vector<ThroughputRow>& rows) {
  std::FILE* f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"repeated_query_throughput\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", HardwareThreads());
  std::fprintf(f, "  \"command\": \"%s\",\n", command.c_str());
  std::fprintf(f, "  \"graphs\": [\n");
  for (size_t i = 0; i < datasets.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"nodes\": %u, \"edges\": %llu}%s\n",
                 datasets[i].name.c_str(), datasets[i].graph.NumNodes(),
                 static_cast<unsigned long long>(datasets[i].graph.NumEdges()),
                 i + 1 < datasets.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"queries\": %u,\n  \"rows\": [\n", num_queries);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    std::fprintf(f,
                 "    {\"graph\": \"%s\", \"mode\": \"%s\", \"threads\": %u, "
                 "\"queries\": %u, \"seconds\": %.6f, \"qps\": %.1f}%s\n",
                 r.graph.c_str(), r.mode.c_str(), r.threads, r.queries,
                 r.seconds, r.qps(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (f != stdout) std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  std::string json_path;
  std::string graph_scale;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--graph-scale=", 14) == 0) {
      graph_scale = argv[i] + 14;
    }
  }
  std::printf("== Parallel scalability (extension) ==\n");
  std::printf("hardware threads available: %u\n", HardwareThreads());

  Dataset dataset = MakeDataset("twitter", config.scale, config.rng_seed);
  PrintDatasetBanner(dataset);
  Rng rng(config.rng_seed);
  const std::vector<NodeId> seeds =
      UniformSeeds(dataset.graph, config.num_seeds, rng);

  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 0.2 * DefaultDelta(dataset.graph);
  params.p_f = 1e-6;

  const std::vector<uint32_t> thread_counts = {1, 2, 4, 8};

  std::printf("\n-- Monte-Carlo --\n");
  {
    MonteCarloEstimator sequential(dataset.graph, params, config.rng_seed);
    const Aggregate base = RunLocalClustering(dataset.graph, sequential, seeds);
    TablePrinter table({"threads", "time", "speedup", "conductance"});
    table.AddRow({"seq", FmtMs(base.avg_ms), "1.0x",
                  FmtF(base.avg_conductance)});
    for (uint32_t threads : thread_counts) {
      MonteCarloEstimator est(dataset.graph, params, config.rng_seed, -1.0,
                              WalkKernelOptions(), threads);
      const Aggregate agg = RunLocalClustering(dataset.graph, est, seeds);
      table.AddRow({std::to_string(threads), FmtMs(agg.avg_ms),
                    FmtF(base.avg_ms / (agg.avg_ms + 1e-9), 1) + "x",
                    FmtF(agg.avg_conductance)});
    }
    table.Print();
  }

  std::printf("\n-- TEA+ (walk-heavy configuration, c=1) --\n");
  {
    TeaPlusOptions options;
    options.c = 1.0;
    TeaPlusEstimator sequential(dataset.graph, params, config.rng_seed,
                                options);
    const Aggregate base = RunLocalClustering(dataset.graph, sequential, seeds);
    TablePrinter table({"threads", "time", "speedup", "conductance"});
    table.AddRow({"seq", FmtMs(base.avg_ms), "1.0x",
                  FmtF(base.avg_conductance)});
    for (uint32_t threads : thread_counts) {
      TeaPlusEstimator est(dataset.graph, params, config.rng_seed, options,
                           -1.0, threads);
      const Aggregate agg = RunLocalClustering(dataset.graph, est, seeds);
      table.AddRow({std::to_string(threads), FmtMs(agg.avg_ms),
                    FmtF(base.avg_ms / (agg.avg_ms + 1e-9), 1) + "x",
                    FmtF(agg.avg_conductance)});
    }
    table.Print();
  }

  // -- Repeated-query throughput: persistent engine vs spawn-per-call ------
  //
  // The serving scenario: many coarse (delta ~ 20/n) TEA+ queries in a row,
  // walk phase forced (c=1) so every query exercises the parallel section.
  // "spawn" recreates threads and scratch per query (Estimate with walk
  // threads spawned per call), "pool" answers the same queries on parked
  // workers with one reused workspace, "batch" pushes whole seed batches
  // through BatchQueryEngine (queries sharded across threads, per-thread
  // workspaces).
  std::printf("\n-- Repeated-query throughput (TEA+, walk-heavy, c=1) --\n");
  {
    const uint32_t num_queries = config.full ? 2000 : 1000;
    std::vector<Dataset> serve_datasets;
    serve_datasets.push_back(dataset);  // Graph copies share the payload
    if (!graph_scale.empty()) {
      serve_datasets.push_back(MakeScaledGraph(graph_scale, config.rng_seed));
    }

    std::vector<ThroughputRow> results;
    for (const Dataset& serve_dataset : serve_datasets) {
      PrintDatasetBanner(serve_dataset);
      // Scaling presets get proportionally fewer queries: per-query cost
      // grows with the graph, and each row records its own query count.
      const uint32_t queries = &serve_dataset == &serve_datasets.front()
                                   ? num_queries
                                   : std::max(100u, num_queries / 5);
      ApproxParams serve_params;
      serve_params.t = 5.0;
      serve_params.eps_r = 0.5;
      serve_params.delta = 100.0 * DefaultDelta(serve_dataset.graph);
      serve_params.p_f = 1e-6;
      BackendSpec serve_spec;
      serve_spec.context.tea_plus.c = 1.0;
      const TeaPlusOptions& serve_options = serve_spec.context.tea_plus;
      std::vector<NodeId> serve_seeds =
          UniformSeeds(serve_dataset.graph, 1000, rng);

      TablePrinter table(
          {"threads", "spawn q/s", "pool q/s", "batch q/s", "pool gain"});
      for (uint32_t threads : thread_counts) {
        TeaPlusEstimator spawning(serve_dataset.graph, serve_params,
                                  config.rng_seed, serve_options, -1.0,
                                  threads);
        const double spawn_s = TimeQueries(
            queries, serve_seeds, [&](NodeId s) { spawning.Estimate(s); });

        ThreadPool pool(threads);
        TeaPlusEstimator pooled(serve_dataset.graph, serve_params,
                                config.rng_seed, serve_options, -1.0, threads,
                                &pool);
        QueryWorkspace ws;
        const double pool_s =
            TimeQueries(queries, serve_seeds,
                        [&](NodeId s) { pooled.EstimateInto(s, ws); });

        BatchQueryEngine engine(serve_dataset.graph, serve_params,
                                config.rng_seed, threads, serve_spec);
        WallTimer batch_timer;
        for (uint32_t done = 0; done < queries;) {
          const uint32_t take = std::min<uint32_t>(
              queries - done, static_cast<uint32_t>(serve_seeds.size()));
          engine.EstimateBatch(
              std::span<const NodeId>(serve_seeds.data(), take));
          done += take;
        }
        const double batch_s = batch_timer.ElapsedSeconds();

        results.push_back({serve_dataset.name, "spawn", threads, queries,
                           spawn_s});
        results.push_back({serve_dataset.name, "pool", threads, queries,
                           pool_s});
        results.push_back({serve_dataset.name, "batch", threads, queries,
                           batch_s});
        table.AddRow({std::to_string(threads), FmtF(queries / spawn_s, 0),
                      FmtF(queries / pool_s, 0), FmtF(queries / batch_s, 0),
                      FmtF(spawn_s / (pool_s + 1e-12), 2) + "x"});
      }
      table.Print();
    }
    WriteThroughputJson(json_path, JsonCommandLine(argc, argv),
                        serve_datasets, num_queries, results);
  }
  return 0;
}
