// Cluster-quality gate: TEA+ at the server's accuracy parameters (t = 5,
// eps_r = 0.5, delta = 1/n, p_f = 1e-6) must recover the planted
// communities of the Table 8 stand-in datasets. Each dataset runs
// bench_table8_f1's quick protocol: 12 seeds, each from a distinct planted
// community of at least 40 nodes, clustered by LocalCluster and scored by
// F1 against the seed's community. Both the paper's hard hop cap and the
// served drain past it are gated, so a change to served answers cannot
// silently trade away cluster quality.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util/datasets.h"
#include "bench_util/workload.h"
#include "clustering/local_cluster.h"
#include "clustering/metrics.h"
#include "common/random.h"
#include "hkpr/tea_plus.h"

namespace hkpr {
namespace {

/// Mean F1 of hard-capped TEA+ per dataset, measured when this gate was
/// added.
struct MeasuredF1 {
  const char* dataset;
  double f1;
};
constexpr MeasuredF1 kMeasured[] = {
    {"dblp", 0.6259},
    {"youtube", 0.0706},
    {"livejournal", 0.9754},
    {"orkut", 0.7813},
};
/// Allowed drop, as a fraction of the measured F1. Returning the seed
/// alone scores F1 below 0.03 on every dataset, under every floor.
constexpr double kMargin = 0.10;

double MeanTeaPlusF1(const Dataset& dataset,
                     const std::vector<CommunitySeed>& queries,
                     const TeaPlusOptions& options) {
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1.0 / dataset.graph.NumNodes();
  params.p_f = 1e-6;
  TeaPlusEstimator estimator(dataset.graph, params, /*seed=*/48, options);
  double f1 = 0.0;
  for (const CommunitySeed& q : queries) {
    const LocalClusterResult result =
        LocalCluster(dataset.graph, estimator, q.seed);
    f1 += ComputeF1(result.cluster, dataset.communities.Community(q.community))
              .f1;
  }
  return f1 / static_cast<double>(queries.size());
}

TEST(ClusterQualityGateTest, TeaPlusRecoversPlantedCommunities) {
  TeaPlusOptions drained;
  drained.drain_past_hop_cap = true;
  for (const std::string& name : CommunityDatasetNames()) {
    SCOPED_TRACE(name);
    double measured = -1.0;
    for (const MeasuredF1& m : kMeasured) {
      if (name == m.dataset) measured = m.f1;
    }
    ASSERT_GT(measured, 0.0) << "no measured F1 for this dataset";

    const Dataset dataset = MakeDataset(name, DatasetScale::kQuick, 42);
    Rng rng(45);
    const std::vector<CommunitySeed> queries = CommunitySeeds(
        dataset.graph, dataset.communities, 12, /*min_size=*/40, rng);
    ASSERT_EQ(queries.size(), 12u);

    const double hard_cap_f1 =
        MeanTeaPlusF1(dataset, queries, TeaPlusOptions());
    const double drained_f1 = MeanTeaPlusF1(dataset, queries, drained);
    const double floor = (1.0 - kMargin) * measured;
    EXPECT_GE(hard_cap_f1, floor);
    EXPECT_GE(drained_f1, floor);
    EXPECT_GE(drained_f1, hard_cap_f1 - kMargin * measured);
  }
}

}  // namespace
}  // namespace hkpr
