// Answer checker: served top-k scores against the exact heat kernel
// PageRank (power method), as a share of the plan's (d, eps_r, delta)
// guarantee.
//
//   perfbench_tool check <graph> <t> <eps_r> <delta> <served>
//
// <served> holds one answer per line: "<seed> <node>:<score> ...". Prints
// {"seeds":S,"entries":E,"mean_ratio":..,"max_ratio":..,"violations":V,
//  "violating_seeds":[...]} and exits 1 when any entry breaks the guarantee.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "graph/graph_io.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/power_method.h"
#include "tool.h"

namespace perfbench {

using hkpr::NodeId;

CheckSummary CheckServed(const hkpr::Graph& graph,
                         const hkpr::ApproxParams& params,
                         const std::vector<ServedTopK>& served,
                         unsigned threads) {
  // Answers grouped by seed: one exact vector serves them all.
  std::map<NodeId, std::vector<const ServedTopK*>> by_seed;
  for (const ServedTopK& s : served) by_seed[s.seed].push_back(&s);
  std::vector<std::pair<NodeId, std::vector<const ServedTopK*>>> work(
      by_seed.begin(), by_seed.end());

  struct Partial {
    size_t entries = 0;
    double sum = 0.0;
    double max = 0.0;
    size_t violations = 0;
    std::vector<NodeId> violating_seeds;
  };
  threads = std::max(1u, std::min<unsigned>(threads, work.size()));
  std::vector<Partial> partial(threads);
  const hkpr::HeatKernel kernel(params.t);
  auto worker = [&](unsigned id) {
    Partial& p = partial[id];
    for (size_t i = id; i < work.size(); i += threads) {
      const NodeId seed = work[i].first;
      const size_t violations_before = p.violations;
      if (seed >= graph.NumNodes()) {
        for (const ServedTopK* s : work[i].second) {
          p.entries += s->entries.size();
          p.violations += s->entries.size();
        }
        p.violating_seeds.push_back(seed);
        continue;
      }
      std::vector<double> exact = hkpr::ExactHkpr(graph, kernel, seed);
      hkpr::NormalizeByDegree(graph, exact);
      for (const ServedTopK* s : work[i].second) {
        for (const auto& [node, score] : s->entries) {
          ++p.entries;
          if (node >= graph.NumNodes()) {
            ++p.violations;
            continue;
          }
          const double bound =
              params.eps_r * std::max(exact[node], params.delta);
          const double ratio = std::abs(score - exact[node]) / bound;
          p.sum += ratio;
          p.max = std::max(p.max, ratio);
          if (!(ratio <= 1.0)) ++p.violations;
        }
      }
      if (p.violations != violations_before) p.violating_seeds.push_back(seed);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned id = 1; id < threads; ++id) pool.emplace_back(worker, id);
  worker(0);
  for (std::thread& t : pool) t.join();

  CheckSummary summary;
  summary.seeds = work.size();
  double sum = 0.0;
  for (const Partial& p : partial) {
    summary.entries += p.entries;
    summary.violations += p.violations;
    summary.max_ratio = std::max(summary.max_ratio, p.max);
    summary.violating_seeds.insert(summary.violating_seeds.end(),
                                   p.violating_seeds.begin(),
                                   p.violating_seeds.end());
    sum += p.sum;
  }
  std::sort(summary.violating_seeds.begin(), summary.violating_seeds.end());
  summary.mean_ratio =
      summary.entries == 0 ? 0.0 : sum / static_cast<double>(summary.entries);
  return summary;
}

int RunCheck(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr, "usage: check <graph> <t> <eps_r> <delta> <served>\n");
    return 2;
  }
  hkpr::Result<hkpr::Graph> loaded = hkpr::LoadEdgeList(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "check: %s\n", loaded.status().ToString().c_str());
    return 2;
  }
  const hkpr::Graph graph = std::move(loaded).value();
  hkpr::ApproxParams params;
  params.t = std::strtod(argv[3], nullptr);
  params.eps_r = std::strtod(argv[4], nullptr);
  params.delta = std::strtod(argv[5], nullptr);

  std::vector<ServedTopK> served;
  std::ifstream in(argv[6]);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    ServedTopK s;
    if (!(fields >> s.seed)) continue;
    std::string entry;
    while (fields >> entry) {
      const size_t colon = entry.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "check: malformed entry \"%s\"\n", entry.c_str());
        return 2;
      }
      s.entries.emplace_back(
          static_cast<NodeId>(std::strtoul(entry.c_str(), nullptr, 10)),
          std::strtod(entry.c_str() + colon + 1, nullptr));
    }
    served.push_back(std::move(s));
  }
  const CheckSummary summary = CheckServed(
      graph, params, served, std::thread::hardware_concurrency());
  std::printf(
      "{\"seeds\":%zu,\"entries\":%zu,\"mean_ratio\":%.17g,"
      "\"max_ratio\":%.17g,\"violations\":%zu,\"violating_seeds\":[",
      summary.seeds, summary.entries, summary.mean_ratio, summary.max_ratio,
      summary.violations);
  for (size_t i = 0; i < summary.violating_seeds.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : ",", summary.violating_seeds[i]);
  }
  std::printf("]}\n");
  return summary.violations == 0 ? 0 : 1;
}

}  // namespace perfbench
