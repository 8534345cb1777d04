// Walk-kernel sweep against a scalar reference loop (extension).
//
// Measures the raw walk phase in isolation: heat-kernel walks from a seed
// node (the Monte-Carlo workload, which is 100% walk phase) on the
// --graph-scale presets, from L2-resident (~12.5k nodes / ~213k edges) to
// DRAM-resident (~592k nodes / ~10.9M edges). For each graph it times the
// "scalar" row — the reference KRandomWalk loop (random_walk.h), one walk
// at a time off a shared sequential Rng, which no estimator runs — and the
// interleaved kernel (hkpr/walk_kernel.h), the walk phase of every
// estimator, at widths 1, 4, 8 and 16, reporting walk-steps/sec. On
// cache-resident graphs the two are expected to tie (prefetch hints are
// near-free but useless); past LLC the interleaved kernel overlaps the
// dependent DRAM loads of W walks and should win big.
//
// The run also *verifies* the kernel's determinism claim for free: the
// end-node checksum of every interleaved width must be identical (each
// walk's stream is a pure function of its index), and any mismatch is a
// hard failure regardless of mode.
//
// Flags: --sizes=a,b,c (default small,medium,large; --smoke default:
// small,medium), --walks=N walks per measurement (default 2000000; smoke
// 300000), --reps=N timed reps, best kept (default 3), --widths=a,b,c
// (default 1,4,8,16), --floor=F smoke-gate speedup floor (default 1.0),
// --graph-cache=DIR binary snapshot cache (same keys as
// bench_serve_scaling), --json=PATH (BENCH_walk.json, with the hardware
// thread count and the command line), --smoke (CI-sized run; exits 1 when
// interleaved width-8 steps/sec < floor * scalar on the largest graph).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/random_walk.h"
#include "hkpr/walk_kernel.h"

using namespace hkpr;
using namespace hkpr::bench;

namespace {

struct WalkRow {
  std::string graph;
  uint32_t nodes = 0;
  uint64_t edges = 0;
  std::string kernel;  // "scalar" or "interleaved"
  uint32_t width = 0;  // 0 for scalar
  uint64_t walks = 0;
  uint64_t steps = 0;
  double seconds = 0.0;
  double speedup_vs_scalar = 1.0;
  double steps_per_sec() const {
    return static_cast<double>(steps) / (seconds + 1e-12);
  }
};

/// FNV-1a over the end-node array: the cross-width bit-identity check.
uint64_t EndsChecksum(const std::vector<NodeId>& ends) {
  uint64_t h = 1469598103934665603ULL;
  for (NodeId v : ends) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Scalar baseline: the reference KRandomWalk loop, one walk at a time off
/// a shared sequential Rng. Returns total steps.
uint64_t RunScalar(const Graph& graph, const HeatKernel& kernel, NodeId seed,
                   uint64_t num_walks, uint64_t rng_seed) {
  Rng rng(rng_seed);
  uint64_t steps = 0;
  for (uint64_t i = 0; i < num_walks; ++i) {
    KRandomWalk(graph, kernel, seed, 0, rng, &steps);
  }
  return steps;
}

void WriteWalkJson(const std::string& path, const std::string& command,
                   const std::vector<WalkRow>& rows) {
  std::FILE* f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"walk_kernel\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", HardwareThreads());
  std::fprintf(f, "  \"command\": \"%s\",\n", command.c_str());
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const WalkRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"graph\": \"%s\", \"nodes\": %u, \"edges\": %llu, "
        "\"kernel\": \"%s\", \"width\": %u, \"walks\": %llu, "
        "\"steps\": %llu, \"seconds\": %.6f, \"steps_per_sec\": %.0f, "
        "\"speedup_vs_scalar\": %.3f}%s\n",
        r.graph.c_str(), r.nodes, static_cast<unsigned long long>(r.edges),
        r.kernel.c_str(), r.width, static_cast<unsigned long long>(r.walks),
        static_cast<unsigned long long>(r.steps), r.seconds,
        r.steps_per_sec(), r.speedup_vs_scalar,
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
  std::vector<std::string> sizes;
  std::vector<uint32_t> widths = {1, 4, 8, 16};
  uint64_t num_walks = 0;
  uint32_t reps = 3;
  double floor = 1.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--graph-cache=", 14) == 0) {
      cache_dir = argv[i] + 14;
    }
    if (std::strncmp(argv[i], "--sizes=", 8) == 0) {
      sizes = SplitCsv(argv[i] + 8);
    }
    if (std::strncmp(argv[i], "--widths=", 9) == 0) {
      widths.clear();
      for (const std::string& w : SplitCsv(argv[i] + 9)) {
        widths.push_back(static_cast<uint32_t>(std::atoi(w.c_str())));
      }
    }
    if (std::strncmp(argv[i], "--walks=", 8) == 0) {
      num_walks = static_cast<uint64_t>(std::atoll(argv[i] + 8));
    }
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<uint32_t>(std::atoi(argv[i] + 7));
    }
    if (std::strncmp(argv[i], "--floor=", 8) == 0) {
      floor = std::atof(argv[i] + 8);
    }
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (sizes.empty()) {
    sizes = smoke ? std::vector<std::string>{"small", "medium"}
                  : std::vector<std::string>{"small", "medium", "large"};
  }
  if (num_walks == 0) num_walks = smoke ? 300'000 : 2'000'000;
  if (reps == 0) reps = 1;

  std::printf("# walk-kernel sweep: scalar vs interleaved, %llu walks/rep, "
              "%u reps (best kept)\n",
              static_cast<unsigned long long>(num_walks), reps);

  const HeatKernel kernel(5.0);
  std::vector<WalkRow> rows;
  bool gate_ok = true;
  std::string gate_msg;

  for (const std::string& size_name : sizes) {
    const Graph graph =
        PrepareScaledGraph(size_name, cache_dir, config.rng_seed);
    const std::string graph_name = "rmat-" + size_name;
    std::printf("\n### %s: n=%u m=%llu avg-deg=%.2f\n", graph_name.c_str(),
                graph.NumNodes(),
                static_cast<unsigned long long>(graph.NumEdges()),
                graph.AverageDegree());

    // All walks start at one well-connected node — the Monte-Carlo
    // workload. Deterministic pick: the max-degree node.
    NodeId seed_node = 0;
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      if (graph.Degree(v) > graph.Degree(seed_node)) seed_node = v;
    }

    // Scalar baseline. One untimed warmup rep faults the CSR pages in
    // (mmap'd snapshots start cold) so rep timings measure steady state.
    RunScalar(graph, kernel, seed_node, num_walks / 4 + 1, config.rng_seed);
    WalkRow scalar_row;
    scalar_row.graph = graph_name;
    scalar_row.nodes = graph.NumNodes();
    scalar_row.edges = graph.NumEdges();
    scalar_row.kernel = "scalar";
    scalar_row.walks = num_walks;
    scalar_row.seconds = 1e300;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      const uint64_t steps =
          RunScalar(graph, kernel, seed_node, num_walks, config.rng_seed);
      const double seconds = timer.ElapsedSeconds();
      if (seconds < scalar_row.seconds) {
        scalar_row.seconds = seconds;
        scalar_row.steps = steps;
      }
    }
    rows.push_back(scalar_row);
    std::printf("  %-22s %10.0f steps/s\n", "scalar",
                scalar_row.steps_per_sec());

    // Interleaved widths. Same stream seed everywhere: every width must
    // produce the identical end-node array.
    const uint64_t stream_seed = WalkStreamSeed(config.rng_seed, 0);
    WalkStartSet start_set;
    start_set.fixed_node = seed_node;
    std::vector<NodeId> ends(num_walks);
    uint64_t reference_checksum = 0;
    double width8_speedup = 0.0;
    for (const uint32_t width : widths) {
      WalkRow row;
      row.graph = graph_name;
      row.nodes = graph.NumNodes();
      row.edges = graph.NumEdges();
      row.kernel = "interleaved";
      row.width = width;
      row.walks = num_walks;
      row.seconds = 1e300;
      for (uint32_t rep = 0; rep < reps; ++rep) {
        WallTimer timer;
        const uint64_t steps =
            RunInterleavedWalks(graph, kernel, start_set, stream_seed, 0,
                                num_walks, ends.data(), width);
        const double seconds = timer.ElapsedSeconds();
        if (seconds < row.seconds) {
          row.seconds = seconds;
          row.steps = steps;
        }
      }
      const uint64_t checksum = EndsChecksum(ends);
      if (reference_checksum == 0) reference_checksum = checksum;
      if (checksum != reference_checksum) {
        std::fprintf(stderr,
                     "FAIL %s: width %u end-node checksum %016llx differs "
                     "from width %u's %016llx — determinism broken\n",
                     graph_name.c_str(), width,
                     static_cast<unsigned long long>(checksum), widths[0],
                     static_cast<unsigned long long>(reference_checksum));
        return 1;
      }
      row.speedup_vs_scalar =
          row.steps_per_sec() / (scalar_row.steps_per_sec() + 1e-12);
      if (width == 8) width8_speedup = row.speedup_vs_scalar;
      rows.push_back(row);
      std::printf("  %-22s %10.0f steps/s  (%.2fx scalar)\n",
                  ("interleaved w=" + std::to_string(width)).c_str(),
                  row.steps_per_sec(), row.speedup_vs_scalar);
    }

    // The smoke gate reads the *last* (largest) graph's width-8 row.
    if (size_name == sizes.back() && width8_speedup > 0.0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s: interleaved w=8 %.2fx scalar (floor %.2f)",
                    graph_name.c_str(), width8_speedup, floor);
      gate_msg = buf;
      gate_ok = width8_speedup >= floor;
    }
  }

  WriteWalkJson(json_path, JsonCommandLine(argc, argv), rows);
  if (smoke) {
    std::printf("\nGATE %s: %s\n", gate_ok ? "OK" : "FAIL", gate_msg.c_str());
    if (!gate_ok) return 1;
  }
  return 0;
}
