// perfbench_tool entry point: the gen and selftest subcommands and the
// dispatch to the others (see tool.h).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "hkpr/backend.h"
#include "tool.h"

namespace perfbench {
namespace {

/// Writes one of the benches' R-MAT presets (bench_common.h's
/// MakeScaledGraph) as an edge list.
int RunGen(int argc, char** argv) {
  if (argc != 5 || (std::strcmp(argv[2], "small") != 0 &&
                    std::strcmp(argv[2], "medium") != 0)) {
    std::fprintf(stderr, "usage: gen <small|medium> <seed> <out.txt>\n");
    return 2;
  }
  const hkpr::Graph graph =
      hkpr::bench::MakeScaledGraph(argv[2], std::strtoull(argv[3], nullptr, 10))
          .graph;
  const hkpr::Status saved = hkpr::SaveEdgeList(graph, argv[4]);
  if (!saved.ok()) {
    std::fprintf(stderr, "gen: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("{\"nodes\":%u,\"edges\":%llu,\"csr_bytes\":%zu}\n",
              graph.NumNodes(),
              static_cast<unsigned long long>(graph.NumEdges()),
              graph.MemoryBytes());
  return 0;
}

bool Expect(bool ok, const char* what) {
  std::fprintf(stderr, "selftest: %s: %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

/// The served top-k of `seed` from the server's default TEA+ backend.
ServedTopK ServeTopK(const hkpr::Graph& graph,
                     const hkpr::ApproxParams& params, hkpr::NodeId seed) {
  const std::unique_ptr<hkpr::WorkspaceEstimator> tea =
      hkpr::EstimatorRegistry::Global().Create("tea+", graph, params, 1);
  hkpr::QueryWorkspace ws;
  ServedTopK served;
  served.seed = seed;
  for (const hkpr::ScoredNode& s :
       hkpr::TopKNormalized(graph, tea->EstimateInto(seed, ws), 10)) {
    served.entries.emplace_back(s.node, s.score);
  }
  return served;
}

/// The checker must pass real answers and reject a perturbed score and an
/// answer attributed to the wrong seed; the TEA+ replay must match
/// EstimateInto bit for bit at the right stream seed and differ at another.
int RunSelfTest() {
  bool ok = true;

  // A ring lattice: heat from opposite sides never meets within t = 5.
  const hkpr::Graph ring = hkpr::WattsStrogatz(2000, 2, 0.0, 3);
  hkpr::ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1.0 / ring.NumNodes();
  params.p_f = 1e-6;
  const ServedTopK served = ServeTopK(ring, params, 0);
  ok &= Expect(served.entries.size() == 10, "served 10 entries");
  ok &= Expect(CheckServed(ring, params, {served}, 2).violations == 0,
               "checker accepts served answers");
  ServedTopK perturbed = served;
  perturbed.entries[3].second *= 1.0 + 2.0 * params.eps_r;
  const CheckSummary rejected = CheckServed(ring, params, {perturbed}, 2);
  ok &= Expect(rejected.violations == 1 &&
                   rejected.violating_seeds == std::vector<hkpr::NodeId>{0},
               "checker rejects a perturbed score and names its seed");
  ServedTopK wrong_seed = served;
  wrong_seed.seed = 1000;
  ok &= Expect(CheckServed(ring, params, {wrong_seed}, 2).violations ==
                   wrong_seed.entries.size(),
               "checker rejects a wrong seed");

  // Replay on a seed that reaches the walk phase.
  const hkpr::Graph rmat =
      hkpr::RestrictToLargestComponent(hkpr::Rmat(12, 16.0, 5));
  params.delta = 0.1 / rmat.NumNodes();
  const hkpr::BackendContext context;
  const uint64_t engine_seed = 11;
  const std::unique_ptr<hkpr::WorkspaceEstimator> made =
      hkpr::EstimatorRegistry::Global().Create("tea+", rmat, params,
                                               engine_seed, context);
  auto* tea = dynamic_cast<hkpr::TeaPlusEstimator*>(made.get());
  hkpr::TeaPlusOptions options = context.tea_plus;
  options.walk_kernel = context.walk_kernel;
  const hkpr::HeatKernel kernel(params.t);
  hkpr::QueryWorkspace replay_ws, reference_ws;
  std::vector<hkpr::ScoredNode> top_k;
  bool walked = false;
  for (hkpr::NodeId seed = 0; tea != nullptr && seed < 200 && !walked;
       ++seed) {
    const PhaseTimes t =
        ReplayTeaPlus(rmat, *tea, options, params, kernel, seed,
                      QueryStreamSeed(engine_seed, 7), 10, replay_ws, &top_k);
    if (t.walk_steps == 0) continue;
    walked = true;
    tea->Reseed(hkpr::QueryRngSeed(engine_seed, 7));
    tea->EstimateInto(seed, reference_ws);
    ok &= Expect(BitIdentical(replay_ws.result, reference_ws.result),
                 "replay is bit-identical at the query's stream seed");
    ReplayTeaPlus(rmat, *tea, options, params, kernel, seed,
                  QueryStreamSeed(engine_seed + 1, 7), 10, replay_ws, &top_k);
    ok &= Expect(!BitIdentical(replay_ws.result, reference_ws.result),
                 "replay differs at another stream seed");
  }
  ok &= Expect(walked, "found a query that walks");
  std::printf("{\"selftest\":%s}\n", ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "gen") return perfbench::RunGen(argc, argv);
  if (command == "drive") return perfbench::RunDrive(argc, argv);
  if (command == "check") return perfbench::RunCheck(argc, argv);
  if (command == "layers") return perfbench::RunLayers(argc, argv);
  if (command == "selftest" && argc == 2) return perfbench::RunSelfTest();
  std::fprintf(stderr,
               "usage: perfbench_tool gen|drive|check|layers|selftest ...\n");
  return 2;
}
