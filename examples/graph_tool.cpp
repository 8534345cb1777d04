// graph_tool: command-line utility around the graph substrate.
//
//   graph_tool gen <kind> <out.txt> [n]     generate a synthetic graph
//                                           (kinds: plc, grid3d, rmat, er,
//                                            ba, lfr)
//   graph_tool stats <graph.txt>            print structural statistics
//   graph_tool convert <in.txt> <out.bin>   edge list -> binary CSR
//   graph_tool cluster <graph.txt> <seed>   TEA+ local cluster from a seed

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "clustering/local_cluster.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "graph/subgraph.h"
#include "hkpr/tea_plus.h"

using namespace hkpr;

namespace {

int Generate(const std::string& kind, const std::string& path, uint32_t n) {
  Graph graph;
  if (kind == "plc") {
    graph = PowerlawCluster(n, 5, 0.3, 42);
  } else if (kind == "grid3d") {
    uint32_t side = 10;
    while ((side + 1) * (side + 1) * (side + 1) <= n) ++side;
    graph = Grid3D(side, side, side, true);
  } else if (kind == "rmat") {
    uint32_t scale = 10;
    while ((1u << (scale + 1)) <= n) ++scale;
    graph = Rmat(scale, 16.0, 42);
  } else if (kind == "er") {
    graph = ErdosRenyiGnm(n, 8ull * n, 42);
  } else if (kind == "ba") {
    graph = BarabasiAlbert(n, 4, 42);
  } else if (kind == "lfr") {
    LfrOptions options;
    options.n = n;
    graph = LfrLike(options, 42).graph;
  } else {
    std::fprintf(stderr, "unknown kind '%s'\n", kind.c_str());
    return 1;
  }
  const Status status = SaveEdgeList(graph, path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u nodes, %llu edges\n", path.c_str(),
              graph.NumNodes(),
              static_cast<unsigned long long>(graph.NumEdges()));
  return 0;
}

Result<Graph> LoadAny(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
    return MapBinary(path);
  }
  return LoadEdgeList(path);
}

int Stats(const std::string& path) {
  auto loaded = LoadAny(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Graph& g = loaded.value();
  const ComponentLabels cc = ConnectedComponents(g);
  const DegreeStats degrees = ComputeDegreeStats(g);
  Rng rng(1);
  const std::vector<NodeId> lcc = LargestComponent(g);
  std::printf("nodes:            %u\n", g.NumNodes());
  std::printf("edges:            %llu\n",
              static_cast<unsigned long long>(g.NumEdges()));
  std::printf("degree:           avg %.2f / median %.0f / p90 %.0f / max %u\n",
              degrees.mean, degrees.median, degrees.p90, degrees.max);
  std::printf("clustering coef:  %.4f (sampled)\n",
              AverageClusteringCoefficient(g, 2000, rng));
  std::printf("components:       %u\n", cc.num_components);
  std::printf("largest comp.:    %zu nodes\n", lcc.size());
  if (!lcc.empty()) {
    std::printf("diameter (est.):  %u\n", EstimateDiameter(g, lcc.front()));
  }
  std::printf("memory:           %.1f MB\n",
              static_cast<double>(g.MemoryBytes()) / (1024.0 * 1024.0));
  return 0;
}

int Convert(const std::string& in, const std::string& out) {
  auto loaded = LoadEdgeList(in);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Status status = SaveBinary(loaded.value(), out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int Cluster(const std::string& path, NodeId seed) {
  auto loaded = LoadAny(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Graph& g = loaded.value();
  if (seed >= g.NumNodes() || g.Degree(seed) == 0) {
    std::fprintf(stderr, "seed %u out of range or isolated\n", seed);
    return 1;
  }
  ApproxParams params;
  params.delta = 1.0 / g.NumNodes();
  TeaPlusEstimator estimator(g, params, 42);
  LocalClusterResult result = LocalCluster(g, estimator, seed);
  std::printf("cluster of %zu nodes, conductance %.4f, %.1f ms\n",
              result.cluster.size(), result.conductance, result.total_ms);
  for (size_t i = 0; i < result.cluster.size(); ++i) {
    std::printf("%u%s", result.cluster[i],
                (i + 1) % 16 == 0 || i + 1 == result.cluster.size() ? "\n"
                                                                    : " ");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage:\n"
                 "  %s gen <plc|grid3d|rmat|er|ba|lfr> <out.txt> [n]\n"
                 "  %s stats <graph.txt|graph.bin>\n"
                 "  %s convert <in.txt> <out.bin>\n"
                 "  %s cluster <graph.txt|graph.bin> <seed>\n",
                 argv[0], argv[0], argv[0], argv[0]);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "gen" && argc >= 4) {
    const uint32_t n = argc >= 5 ? static_cast<uint32_t>(std::atoi(argv[4]))
                                 : 10000;
    return Generate(argv[2], argv[3], n);
  }
  if (command == "stats") return Stats(argv[2]);
  if (command == "convert" && argc >= 4) return Convert(argv[2], argv[3]);
  if (command == "cluster" && argc >= 4) {
    return Cluster(argv[2], static_cast<NodeId>(std::atoi(argv[3])));
  }
  std::fprintf(stderr, "bad arguments; run without arguments for usage\n");
  return 1;
}
