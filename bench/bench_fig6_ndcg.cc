// Figure 6: running time vs NDCG of the normalized-HKPR ranking.
//
// Paper protocol: ground truth from the power method; four datasets (DBLP,
// Youtube, PLC, Orkut); per-algorithm error-parameter sweeps. Expected
// shape: TEA+ reaches any NDCG level fastest; TEA 2-8x slower; HK-Relax
// degrades towards ClusterHKPR/Monte-Carlo on PLC and Orkut.

#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/cluster_hkpr.h"
#include "baselines/hk_relax.h"
#include "bench_common.h"
#include "clustering/metrics.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/power_method.h"
#include "hkpr/tea.h"
#include "hkpr/tea_plus.h"

using namespace hkpr;
using namespace hkpr::bench;

namespace {

constexpr size_t kNdcgDepth = 200;

struct NdcgPoint {
  std::string algorithm;
  std::string param;
  double avg_ms = 0.0;
  double avg_ndcg = 0.0;
};

NdcgPoint Run(const Graph& graph, WorkspaceEstimator& est,
              const std::string& param,
              const std::vector<NodeId>& seeds,
              const std::vector<std::vector<double>>& exact_normalized) {
  NdcgPoint point;
  point.algorithm = std::string(est.name());
  point.param = param;
  for (size_t i = 0; i < seeds.size(); ++i) {
    WallTimer timer;
    SparseVector rho = est.Estimate(seeds[i]);
    point.avg_ms += timer.ElapsedMillis();
    point.avg_ndcg += NdcgAtK(graph, rho, exact_normalized[i], kNdcgDepth);
  }
  point.avg_ms /= static_cast<double>(seeds.size());
  point.avg_ndcg /= static_cast<double>(seeds.size());
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  std::printf("== Figure 6: running time vs NDCG@%zu ==\n", kNdcgDepth);
  std::printf("t=5, p_f=1e-6, eps_r=0.5, %u seeds/dataset, power-method "
              "ground truth\n",
              config.num_seeds);

  const std::vector<std::string> datasets = {"dblp", "youtube", "plc",
                                             "orkut"};
  for (const std::string& name : datasets) {
    Dataset dataset = MakeDataset(name, config.scale, config.rng_seed);
    PrintDatasetBanner(dataset);
    Rng rng(config.rng_seed);
    const std::vector<NodeId> seeds =
        UniformSeeds(dataset.graph, config.num_seeds, rng);

    // Ground truth per seed.
    HeatKernel kernel(5.0);
    std::vector<std::vector<double>> exact_normalized;
    exact_normalized.reserve(seeds.size());
    for (NodeId seed : seeds) {
      std::vector<double> exact = ExactHkpr(dataset.graph, kernel, seed);
      NormalizeByDegree(dataset.graph, exact);
      exact_normalized.push_back(std::move(exact));
    }

    const double inv_n = 1.0 / static_cast<double>(dataset.graph.NumNodes());
    std::vector<double> delta_mults = {20.0, 2.0, 0.2};
    std::vector<double> relax_eps = {1e-3, 1e-4, 1e-5};
    std::vector<double> chkpr_eps = {0.2, 0.1, 0.05};
    if (config.full) {
      delta_mults.push_back(0.02);
      relax_eps.push_back(1e-6);
      chkpr_eps.push_back(0.02);
    }

    TablePrinter table({"algorithm", "parameter", "NDCG", "time"});
    const auto add = [&](const NdcgPoint& p) {
      table.AddRow({p.algorithm, p.param, FmtF(p.avg_ndcg), FmtMs(p.avg_ms)});
    };

    for (double mult : delta_mults) {
      ApproxParams params;
      params.delta = mult * inv_n;
      params.p_f = 1e-6;
      MonteCarloEstimator mc(dataset.graph, params, config.rng_seed + 1);
      add(Run(dataset.graph, mc, "delta=" + FmtSci(params.delta), seeds,
              exact_normalized));
    }
    for (double eps : chkpr_eps) {
      ClusterHkprOptions options;
      options.eps = eps;
      options.max_walks = 30'000'000;
      ClusterHkprEstimator est(dataset.graph, options, config.rng_seed + 2);
      add(Run(dataset.graph, est, "eps=" + FmtF(eps, 3), seeds,
              exact_normalized));
    }
    for (double eps_a : relax_eps) {
      HkRelaxOptions options;
      options.eps_a = eps_a;
      HkRelaxEstimator est(dataset.graph, options);
      add(Run(dataset.graph, est, "eps_a=" + FmtSci(eps_a), seeds,
              exact_normalized));
    }
    for (double mult : delta_mults) {
      ApproxParams params;
      params.delta = mult * inv_n;
      params.p_f = 1e-6;
      TeaEstimator est(dataset.graph, params, config.rng_seed + 3);
      add(Run(dataset.graph, est, "delta=" + FmtSci(params.delta), seeds,
              exact_normalized));
    }
    for (double mult : delta_mults) {
      ApproxParams params;
      params.delta = mult * inv_n;
      params.p_f = 1e-6;
      TeaPlusEstimator est(dataset.graph, params, config.rng_seed + 4);
      add(Run(dataset.graph, est, "delta=" + FmtSci(params.delta), seeds,
              exact_normalized));
    }
    table.Print();
  }
  return 0;
}
