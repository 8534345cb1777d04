// Shared infrastructure for the figure/table reproduction binaries.
//
// Every binary accepts:
//   --full        paper-scale datasets and sweeps (default: quick mode that
//                 still prints every row/series, at reduced sizes)
//   --seeds=N     queries per dataset (default 3 quick / 20 full)
//   --rng=S       master RNG seed (default 42)

#ifndef HKPR_BENCH_BENCH_COMMON_H_
#define HKPR_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bench_util/datasets.h"
#include "bench_util/table.h"
#include "bench_util/workload.h"
#include "clustering/local_cluster.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "common/random.h"
#include "common/timer.h"
#include "hkpr/estimator.h"

namespace hkpr::bench {

struct BenchConfig {
  DatasetScale scale = DatasetScale::kQuick;
  uint32_t num_seeds = 3;
  uint64_t rng_seed = 42;
  bool full = false;

  static BenchConfig FromArgs(int argc, char** argv) {
    BenchConfig config;
    bool seeds_overridden = false;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--full") == 0) {
        config.full = true;
        config.scale = DatasetScale::kFull;
      } else if (std::strncmp(arg, "--seeds=", 8) == 0) {
        config.num_seeds = static_cast<uint32_t>(std::atoi(arg + 8));
        seeds_overridden = true;
      } else if (std::strncmp(arg, "--rng=", 6) == 0) {
        config.rng_seed = static_cast<uint64_t>(std::atoll(arg + 6));
      } else if (std::strcmp(arg, "--help") == 0) {
        std::printf("usage: %s [--full] [--seeds=N] [--rng=S]\n", argv[0]);
        std::exit(0);
      }
    }
    if (config.full && !seeds_overridden) config.num_seeds = 20;
    return config;
  }
};

/// Averaged outcome of running one estimator configuration over a query set.
struct Aggregate {
  double avg_ms = 0.0;
  double avg_conductance = 0.0;
  double avg_mem_mb = 0.0;  ///< algorithm state + input graph
  double avg_walks = 0.0;
  double avg_pushes = 0.0;
  double avg_support = 0.0;
  uint32_t queries = 0;
};

/// Runs full local-clustering queries (estimate + sweep) over `seeds`.
inline Aggregate RunLocalClustering(const Graph& graph,
                                    WorkspaceEstimator& estimator,
                                    const std::vector<NodeId>& seeds) {
  Aggregate agg;
  const double graph_mb =
      static_cast<double>(graph.MemoryBytes()) / (1024.0 * 1024.0);
  for (NodeId seed : seeds) {
    LocalClusterResult result = LocalCluster(graph, estimator, seed);
    agg.avg_ms += result.total_ms;
    agg.avg_conductance += result.conductance;
    agg.avg_mem_mb +=
        graph_mb + static_cast<double>(result.stats.peak_bytes) / (1024.0 * 1024.0);
    agg.avg_walks += static_cast<double>(result.stats.num_walks);
    agg.avg_pushes += static_cast<double>(result.stats.push_operations);
    agg.avg_support += static_cast<double>(result.support_size);
    ++agg.queries;
  }
  if (agg.queries > 0) {
    const double q = agg.queries;
    agg.avg_ms /= q;
    agg.avg_conductance /= q;
    agg.avg_mem_mb /= q;
    agg.avg_walks /= q;
    agg.avg_pushes /= q;
    agg.avg_support /= q;
  }
  return agg;
}

/// Large-graph presets for the scaling benchmarks (--graph-scale=NAME):
/// deterministic R-MAT power-law graphs restricted to their largest
/// component. "small" reproduces the quick twitter stand-in (the graph the
/// historical BENCH_*.json rows were measured on); "medium" crosses the
/// million-edge line; "large" is the 10M+-edge preset the serve-scaling
/// gate runs on.
///
///   small   R-MAT scale 14, avg-deg 32  ->  ~12.5k nodes / ~213k edges
///   medium  R-MAT scale 17, avg-deg 18  ->  ~80k nodes   / ~1.09M edges
///   large   R-MAT scale 20, avg-deg 22  ->  ~592k nodes  / ~10.9M edges
inline const std::vector<std::string>& GraphScaleNames() {
  static const std::vector<std::string> names = {"small", "medium", "large"};
  return names;
}

inline Dataset MakeScaledGraph(const std::string& scale_name, uint64_t seed) {
  uint32_t rmat_scale = 0;
  double avg_degree = 0.0;
  if (scale_name == "small") {
    rmat_scale = 14;
    avg_degree = 32.0;
  } else if (scale_name == "medium") {
    rmat_scale = 17;
    avg_degree = 18.0;
  } else if (scale_name == "large") {
    rmat_scale = 20;
    avg_degree = 22.0;
  } else {
    std::fprintf(stderr,
                 "unknown --graph-scale \"%s\" (available: small, medium, "
                 "large)\n",
                 scale_name.c_str());
    std::exit(1);
  }
  Dataset dataset;
  dataset.name = "rmat-" + scale_name;
  dataset.paper_name = "R-MAT scaling preset";
  dataset.graph = RestrictToLargestComponent(Rmat(rmat_scale, avg_degree, seed));
  return dataset;
}

/// Loads (mmap) or generates+saves one --graph-scale preset graph. The
/// cache file is the v2 binary CSR snapshot, so a cache hit exercises the
/// production mmap loader; a generated graph is saved back, creating the
/// cache directory if needed, so the next run (and the CI cache) reuses
/// it. Shared by bench_serve_scaling and bench_walk_kernel, which
/// deliberately use the same cache keys.
inline Graph PrepareScaledGraph(const std::string& size_name,
                                const std::string& cache_dir, uint64_t seed) {
  const std::string cache_path =
      cache_dir.empty() ? ""
                        : cache_dir + "/scaling-" + size_name + "-v2.bin";
  if (!cache_path.empty()) {
    auto mapped = MapBinary(cache_path);
    if (mapped.ok()) {
      std::printf("  %s: mmap'd cached snapshot %s\n", size_name.c_str(),
                  cache_path.c_str());
      return std::move(mapped).value();
    }
  }
  WallTimer timer;
  Dataset dataset = MakeScaledGraph(size_name, seed);
  std::printf("  %s: generated in %.1fs\n", size_name.c_str(),
              timer.ElapsedSeconds());
  if (!cache_path.empty()) {
    std::error_code dir_error;
    std::filesystem::create_directories(cache_dir, dir_error);
    if (dir_error) {
      std::fprintf(stderr, "  %s: cannot create cache directory %s: %s\n",
                   size_name.c_str(), cache_dir.c_str(),
                   dir_error.message().c_str());
      return std::move(dataset.graph);
    }
    const Status saved = SaveBinary(dataset.graph, cache_path);
    if (saved.ok()) {
      std::printf("  %s: snapshot cached to %s\n", size_name.c_str(),
                  cache_path.c_str());
    } else {
      std::fprintf(stderr, "  %s: cache write failed: %s\n", size_name.c_str(),
                   saved.ToString().c_str());
    }
  }
  return std::move(dataset.graph);
}

/// argv joined with spaces, escaped for a JSON string: the "command" field
/// that lets a committed BENCH_*.json be regenerated.
inline std::string JsonCommandLine(int argc, char** argv) {
  std::string out;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) out += ' ';
    for (const char* c = argv[i]; *c != '\0'; ++c) {
      if (*c == '"' || *c == '\\') out += '\\';
      out += *c;
    }
  }
  return out;
}

/// Number of hardware threads (at least 1), recorded in the BENCH_*.json
/// files so a row says what core count it ran on.
inline uint32_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : static_cast<uint32_t>(hw);
}

/// Contiguous chunk [begin, end) of [0, total) for part `part` of `parts`;
/// chunk sizes differ by at most one item. The closed-loop benches split
/// their seed lists among client threads with it.
struct ChunkRange {
  uint64_t begin;
  uint64_t end;
};

inline ChunkRange ChunkBounds(uint64_t total, uint32_t parts, uint32_t part) {
  const uint64_t base = total / parts;
  const uint64_t remainder = total % parts;
  const uint64_t begin = part * base + std::min<uint64_t>(part, remainder);
  return {begin, begin + base + (part < remainder ? 1 : 0)};
}

/// The non-empty items of a comma-separated flag value ("small,medium").
inline std::vector<std::string> SplitCsv(const char* value) {
  std::vector<std::string> out;
  std::string token;
  for (const char* p = value;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) out.push_back(token);
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  return out;
}

/// Prints the standard dataset banner.
inline void PrintDatasetBanner(const Dataset& dataset) {
  std::printf("\n### %s (stand-in for %s): n=%s m=%s avg-deg=%.2f\n",
              dataset.name.c_str(), dataset.paper_name.c_str(),
              FmtCount(dataset.graph.NumNodes()).c_str(),
              FmtCount(dataset.graph.NumEdges()).c_str(),
              dataset.graph.AverageDegree());
}

/// One point of an algorithm/parameter sweep (a marker in Figures 4/5/7/8).
struct SweepPoint {
  std::string algorithm;
  std::string param;  // human-readable parameter setting
  Aggregate agg;
};

/// Which algorithms and parameter grids a sweep covers. The defaults mirror
/// Section 7.4; quick mode trims the most expensive grid points.
struct SweepSpec {
  double t = 5.0;
  double p_f = 1e-6;
  double eps_r = 0.5;
  /// delta values for Monte-Carlo / TEA / TEA+, as multiples of 1/n.
  std::vector<double> delta_over_n = {20.0, 2.0, 0.2};
  /// eps_a values for HK-Relax.
  std::vector<double> hk_relax_eps = {1e-3, 1e-4, 1e-5};
  /// eps values for ClusterHKPR.
  std::vector<double> cluster_hkpr_eps = {0.2, 0.1, 0.05};
  /// Iteration counts for CRD.
  std::vector<uint32_t> crd_iterations = {7, 10, 15};
  /// Locality values for SimpleLocal.
  std::vector<double> simple_local_locality = {0.01, 0.02, 0.05};
  /// Cap on ClusterHKPR walks (the paper omits the hour-long points).
  uint64_t cluster_hkpr_max_walks = 30'000'000;
  bool include_monte_carlo = true;
  bool include_cluster_hkpr = true;
  bool include_hk_relax = true;
  bool include_tea = true;
  bool include_tea_plus = true;
  bool include_simple_local = false;  // paper: DBLP/Youtube only (too slow)
  bool include_crd = false;           // paper: small graphs only
};

/// Runs the Section 7.4 style sweep on one graph. Implemented in the
/// binaries' shared header so that Figures 4, 5, 7 and 8/9 print identical
/// semantics.
std::vector<SweepPoint> RunAlgorithmSweep(const Graph& graph,
                                          const std::vector<NodeId>& seeds,
                                          const SweepSpec& spec,
                                          uint64_t rng_seed);

}  // namespace hkpr::bench

#endif  // HKPR_BENCH_BENCH_COMMON_H_
