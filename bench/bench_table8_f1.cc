// Table 8: best F1-measure against ground-truth communities, with the
// running time at the best setting.
//
// Paper protocol: 100 seeds from communities of size >= 100; per algorithm,
// sweep t in 3..10 and the error parameter, report the highest average F1
// and the corresponding time. Expected shape: TEA+ best-or-tied F1 with the
// lowest time on DBLP/Youtube/LiveJournal/Orkut.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/cluster_hkpr.h"
#include "baselines/hk_relax.h"
#include "bench_common.h"
#include "clustering/metrics.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/tea.h"
#include "hkpr/tea_plus.h"

using namespace hkpr;
using namespace hkpr::bench;

namespace {

struct BestResult {
  double f1 = -1.0;
  double ms = 0.0;
  std::string setting;
};

/// Runs one estimator configuration over the community query set; returns
/// (avg F1, avg ms).
std::pair<double, double> EvaluateF1(
    const Graph& graph, const CommunitySet& communities,
    const std::vector<CommunitySeed>& queries, WorkspaceEstimator& est) {
  double f1 = 0.0;
  double ms = 0.0;
  for (const CommunitySeed& q : queries) {
    WallTimer timer;
    LocalClusterResult result = LocalCluster(graph, est, q.seed);
    ms += timer.ElapsedMillis();
    f1 += ComputeF1(result.cluster, communities.Community(q.community)).f1;
  }
  const double count = static_cast<double>(queries.size());
  return {f1 / count, ms / count};
}

void Track(BestResult& best, double f1, double ms, std::string setting) {
  if (f1 > best.f1) {
    best.f1 = f1;
    best.ms = ms;
    best.setting = std::move(setting);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  std::printf("== Table 8: F1 vs ground-truth communities ==\n");

  const uint32_t num_queries = config.full ? 50 : 12;
  const std::vector<double> t_values =
      config.full ? std::vector<double>{3.0, 5.0, 8.0, 10.0}
                  : std::vector<double>{5.0};
  const std::vector<double> delta_mults =
      config.full ? std::vector<double>{20.0, 2.0, 0.2}
                  : std::vector<double>{2.0, 0.2};
  const std::vector<double> relax_eps =
      config.full ? std::vector<double>{1e-3, 1e-4, 1e-5}
                  : std::vector<double>{1e-4, 1e-5};
  const std::vector<double> chkpr_eps =
      config.full ? std::vector<double>{0.2, 0.1, 0.05}
                  : std::vector<double>{0.1, 0.05};

  TablePrinter table({"dataset", "algorithm", "best F1", "time",
                      "best setting"});
  for (const std::string& name : CommunityDatasetNames()) {
    Dataset dataset = MakeDataset(name, config.scale, config.rng_seed);
    Rng rng(config.rng_seed + 3);
    const std::vector<CommunitySeed> queries = CommunitySeeds(
        dataset.graph, dataset.communities, num_queries,
        /*min_size=*/config.full ? 100 : 40, rng);
    if (queries.empty()) {
      std::printf("(%s: no eligible communities, skipped)\n", name.c_str());
      continue;
    }
    const double inv_n = 1.0 / static_cast<double>(dataset.graph.NumNodes());

    BestResult best_mc, best_chkpr, best_relax, best_tea, best_plus;
    for (double t : t_values) {
      for (double mult : delta_mults) {
        ApproxParams params;
        params.t = t;
        params.delta = mult * inv_n;
        params.p_f = 1e-6;
        {
          MonteCarloEstimator est(dataset.graph, params, config.rng_seed + 4);
          auto [f1, ms] =
              EvaluateF1(dataset.graph, dataset.communities, queries, est);
          Track(best_mc, f1, ms,
                "t=" + FmtF(t, 0) + ",delta=" + FmtSci(params.delta));
        }
        {
          TeaEstimator est(dataset.graph, params, config.rng_seed + 5);
          auto [f1, ms] =
              EvaluateF1(dataset.graph, dataset.communities, queries, est);
          Track(best_tea, f1, ms,
                "t=" + FmtF(t, 0) + ",delta=" + FmtSci(params.delta));
        }
        {
          TeaPlusEstimator est(dataset.graph, params, config.rng_seed + 6);
          auto [f1, ms] =
              EvaluateF1(dataset.graph, dataset.communities, queries, est);
          Track(best_plus, f1, ms,
                "t=" + FmtF(t, 0) + ",delta=" + FmtSci(params.delta));
        }
      }
      for (double eps : chkpr_eps) {
        ClusterHkprOptions options;
        options.t = t;
        options.eps = eps;
        options.max_walks = 30'000'000;
        ClusterHkprEstimator est(dataset.graph, options, config.rng_seed + 7);
        auto [f1, ms] =
            EvaluateF1(dataset.graph, dataset.communities, queries, est);
        Track(best_chkpr, f1, ms, "t=" + FmtF(t, 0) + ",eps=" + FmtF(eps, 2));
      }
      for (double eps_a : relax_eps) {
        HkRelaxOptions options;
        options.t = t;
        options.eps_a = eps_a;
        HkRelaxEstimator est(dataset.graph, options);
        auto [f1, ms] =
            EvaluateF1(dataset.graph, dataset.communities, queries, est);
        Track(best_relax, f1, ms,
              "t=" + FmtF(t, 0) + ",eps_a=" + FmtSci(eps_a));
      }
    }

    const auto add = [&](const char* algo, const BestResult& best) {
      table.AddRow({dataset.name, algo, FmtF(best.f1), FmtMs(best.ms),
                    best.setting});
    };
    add("ClusterHKPR", best_chkpr);
    add("Monte-Carlo", best_mc);
    add("HK-Relax", best_relax);
    add("TEA", best_tea);
    add("TEA+", best_plus);
  }
  table.Print();
  return 0;
}
