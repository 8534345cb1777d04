// In-process layer timings: the benchmark's own timings of public
// functions, on the workload's graph file and request seeds. run.py calls
// this after the server has exited, so nothing competes for the cores.
//
//   perfbench_tool layers <graph> <backend> <t> <eps_r> <delta> <p_f>
//                         <cache> <engine_seed> <stream> <computed>
//
// <backend> is the server's default backend (tea+ or auto), <cache> its
// result-cache capacity. <stream> holds the measured stream's seeds in
// send order, <computed> the distinct seeds the server computed (cache
// misses), one per line. Prints one JSON object of per-layer metrics and
// exits 1 when the TEA+ phase replay differs from
// TeaPlusEstimator::EstimateInto on any replayed seed.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph_io.h"
#include "hkpr/backend.h"
#include "hkpr/push.h"
#include "hkpr/router.h"
#include "hkpr/walk_kernel.h"
#include "net/command_processor.h"
#include "net/tenant.h"
#include "service/graph_store.h"
#include "service/multi_graph_service.h"
#include "service/result_cache.h"
#include "tool.h"

namespace perfbench {

using hkpr::NodeId;

namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

std::vector<NodeId> ReadSeeds(const char* path) {
  std::vector<NodeId> seeds;
  std::ifstream in(path);
  unsigned long seed = 0;
  while (in >> seed) seeds.push_back(static_cast<NodeId>(seed));
  return seeds;
}

hkpr::Graph LoadOrDie(const std::string& path) {
  hkpr::Result<hkpr::Graph> loaded = hkpr::LoadEdgeList(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "layers: %s\n", loaded.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(loaded).value();
}

constexpr size_t kTopK = 10;
/// Wall-time caps of the sampled loops; the replay and hk-relax loops stop
/// at whichever of the cap or the end of their seed list comes first.
constexpr double kReplayBudgetMs = 4000.0;
constexpr double kHkRelaxBudgetMs = 1500.0;
constexpr size_t kHkRelaxMaxSeeds = 64;
/// Protocol lines timed through CommandProcessor::Execute.
constexpr size_t kCommandLines = 256;
constexpr int kRepeats = 5;

}  // namespace

uint64_t QueryStreamSeed(uint64_t engine_seed, uint64_t query_index) {
  return hkpr::WalkStreamSeed(hkpr::QueryRngSeed(engine_seed, query_index),
                              0);
}

PhaseTimes ReplayTeaPlus(const hkpr::Graph& graph,
                         const hkpr::TeaPlusEstimator& estimator,
                         const hkpr::TeaPlusOptions& options,
                         const hkpr::ApproxParams& params,
                         const hkpr::HeatKernel& kernel, NodeId seed,
                         uint64_t stream_seed, size_t k,
                         hkpr::QueryWorkspace& ws,
                         std::vector<hkpr::ScoredNode>* top_k) {
  PhaseTimes times;
  const double eps_delta = params.eps_r * params.delta;

  int64_t start = NowNs();
  hkpr::HkPushPlusOptions push_options;
  push_options.eps_r = params.eps_r;
  push_options.delta = params.delta;
  push_options.hop_cap = estimator.hop_cap();
  push_options.push_budget = estimator.push_budget();
  push_options.enable_early_exit = options.enable_early_exit;
  const hkpr::PushCounters push =
      hkpr::HkPushPlusInto(graph, kernel, seed, push_options, ws);
  hkpr::SparseVector& rho = ws.result;
  times.push_ops = push.push_operations;
  times.early_exit =
      push.hit_absolute_target ||
      ws.residues.MaxNormalizedResidueSum(graph) <= eps_delta;
  times.push_ms = MsSince(start);

  // Every phase is timed, also when the query skips it: a skipped phase
  // then reads the cost of the decision to skip it.
  start = NowNs();
  const bool reduce = !times.early_exit && options.enable_residue_reduction;
  if (reduce) hkpr::ReduceResidues(graph, options, eps_delta, ws.residues);
  const double alpha = times.early_exit ? 0.0 : ws.residues.TotalSum();
  const uint64_t num_walks =
      alpha > 0.0 ? static_cast<uint64_t>(std::ceil(alpha * estimator.omega()))
                  : 0;
  times.reduce_ms = MsSince(start);

  start = NowNs();
  if (num_walks > 0) ws.CollectWalkStarts();
  times.alias_ms = MsSince(start);

  start = NowNs();
  if (num_walks > 0) {
    ws.walk_ends.resize(num_walks);
    const hkpr::WalkStartSet start_set{&ws.alias, ws.starts.data(), 0};
    times.walk_steps = hkpr::RunInterleavedWalks(
        graph, kernel, start_set, stream_seed, 0, num_walks,
        ws.walk_ends.data(),
        hkpr::EffectiveWalkWidth(graph, options.walk_kernel));
    const double increment = alpha / static_cast<double>(num_walks);
    for (uint64_t i = 0; i < num_walks; ++i) {
      rho.Add(ws.walk_ends[i], increment);
    }
  }
  times.walk_ms = MsSince(start);
  if (reduce) rho.set_degree_offset(eps_delta / 2.0);

  start = NowNs();
  *top_k = hkpr::TopKNormalized(graph, rho, k);
  times.topk_ms = MsSince(start);
  return times;
}

bool BitIdentical(const hkpr::SparseVector& a, const hkpr::SparseVector& b) {
  if (a.nnz() != b.nnz() ||
      std::bit_cast<uint64_t>(a.degree_offset()) !=
          std::bit_cast<uint64_t>(b.degree_offset())) {
    return false;
  }
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].key != eb[i].key ||
        std::bit_cast<uint64_t>(ea[i].value) !=
            std::bit_cast<uint64_t>(eb[i].value)) {
      return false;
    }
  }
  return true;
}

int RunLayers(int argc, char** argv) {
  if (argc != 12) {
    std::fprintf(stderr,
                 "usage: layers <graph> <backend> <t> <eps_r> <delta> <p_f> "
                 "<cache> <engine_seed> <stream> <computed>\n");
    return 2;
  }
  const std::string graph_path = argv[2];
  const std::string backend = argv[3];
  hkpr::ApproxParams params;
  params.t = std::strtod(argv[4], nullptr);
  params.eps_r = std::strtod(argv[5], nullptr);
  params.delta = std::strtod(argv[6], nullptr);
  params.p_f = std::strtod(argv[7], nullptr);
  const size_t cache_capacity = std::strtoull(argv[8], nullptr, 10);
  const uint64_t engine_seed = std::strtoull(argv[9], nullptr, 10);
  const std::vector<NodeId> stream = ReadSeeds(argv[10]);
  const std::vector<NodeId> computed = ReadSeeds(argv[11]);
  if (stream.empty() || cache_capacity == 0) {
    std::fprintf(stderr, "layers: empty stream or zero cache\n");
    return 2;
  }

  // graph: LoadEdgeList on the workload's file.
  std::vector<double> load_ms;
  hkpr::Graph graph;
  for (int r = 0; r < 3; ++r) {
    const int64_t start = NowNs();
    graph = LoadOrDie(graph_path);
    load_ms.push_back(MsSince(start));
  }
  for (NodeId seed : stream) {
    if (seed >= graph.NumNodes()) {
      std::fprintf(stderr, "layers: seed %u out of range\n", seed);
      return 2;
    }
  }

  // hkpr: plan resolution (the router) on every stream seed.
  const hkpr::GraphScaleFeatures scale = hkpr::GraphScaleFeatures::Of(graph);
  const hkpr::PlanOverrides no_overrides;
  std::vector<double> route_us;
  for (int r = 0; r < kRepeats; ++r) {
    const int64_t start = NowNs();
    size_t resolved = 0;
    for (NodeId seed : stream) {
      resolved += hkpr::ResolveQueryPlan(graph, seed, scale, backend, params,
                                         no_overrides, hkpr::DefaultRouter())
                      .has_value();
    }
    route_us.push_back(MsSince(start) * 1e3 / static_cast<double>(resolved));
  }

  // service: ResultCache lookups on the stream's keys, fresh cache each
  // repeat; misses complete immediately with a shared placeholder.
  const hkpr::ServiceOptions service_defaults;
  const auto placeholder = std::make_shared<const hkpr::SparseVector>();
  std::vector<double> lookup_us;
  for (int r = 0; r < kRepeats; ++r) {
    hkpr::ResultCache cache(cache_capacity, service_defaults.cache_shards);
    int64_t busy_ns = 0;
    for (NodeId seed : stream) {
      const std::optional<hkpr::QueryPlan> plan = hkpr::ResolveQueryPlan(
          graph, seed, scale, backend, params, no_overrides,
          hkpr::DefaultRouter());
      hkpr::ResultCacheKey key;
      key.graph_version = 1;
      key.seed = seed;
      key.backend_id = plan->backend_id;
      key.t = plan->params.t;
      key.eps_r = plan->params.eps_r;
      key.delta = plan->params.delta;
      key.p_f = plan->params.p_f;
      const int64_t start = NowNs();
      hkpr::ResultCache::Lookup lookup = cache.LookupOrStartCompute(key);
      busy_ns += NowNs() - start;
      if (lookup.outcome == hkpr::ResultCache::Outcome::kMiss) {
        cache.Complete(key, lookup.leader, placeholder);
      }
    }
    lookup_us.push_back(static_cast<double>(busy_ns) / 1e3 /
                        static_cast<double>(stream.size()));
  }

  // hkpr: the TEA+ phase replay on the seeds the server computed with
  // TEA+, each checked bit for bit against EstimateInto at the same query
  // index; baselines: hk-relax on the seeds "auto" routes to it.
  const hkpr::BackendContext context;
  const std::unique_ptr<hkpr::WorkspaceEstimator> made =
      hkpr::EstimatorRegistry::Global().Create("tea+", graph, params,
                                               engine_seed, context);
  auto* tea = dynamic_cast<hkpr::TeaPlusEstimator*>(made.get());
  if (tea == nullptr) {
    std::fprintf(stderr, "layers: tea+ is not a TeaPlusEstimator\n");
    return 1;
  }
  hkpr::TeaPlusOptions tea_options = context.tea_plus;
  tea_options.walk_kernel = context.walk_kernel;
  const hkpr::HeatKernel kernel(params.t);
  std::vector<NodeId> tea_seeds, relax_seeds;
  for (NodeId seed : computed) {
    if (seed >= graph.NumNodes()) continue;
    const std::string routed =
        hkpr::ResolveQueryPlan(graph, seed, scale, hkpr::kAutoBackend, params,
                               no_overrides, hkpr::DefaultRouter())
            ->backend;
    if (routed == "hk-relax") relax_seeds.push_back(seed);
    if (backend != hkpr::kAutoBackend || routed == "tea+") {
      tea_seeds.push_back(seed);
    }
  }
  hkpr::QueryWorkspace replay_ws, reference_ws;
  std::vector<hkpr::ScoredNode> top_k;
  PhaseTimes sum;
  double query_ms = 0.0;
  size_t replayed = 0, early_exits = 0, mismatches = 0;
  const int64_t replay_start = NowNs();
  for (NodeId seed : tea_seeds) {
    if (MsSince(replay_start) > kReplayBudgetMs) break;
    const PhaseTimes t =
        ReplayTeaPlus(graph, *tea, tea_options, params, kernel, seed,
                      QueryStreamSeed(engine_seed, replayed), kTopK,
                      replay_ws, &top_k);
    tea->Reseed(hkpr::QueryRngSeed(engine_seed, replayed));
    hkpr::EstimatorStats stats;
    tea->EstimateInto(seed, reference_ws, &stats);
    if (!BitIdentical(replay_ws.result, reference_ws.result) ||
        stats.walk_steps != t.walk_steps ||
        stats.push_operations != t.push_ops) {
      ++mismatches;
    }
    sum.push_ms += t.push_ms;
    sum.reduce_ms += t.reduce_ms;
    sum.alias_ms += t.alias_ms;
    sum.walk_ms += t.walk_ms;
    sum.topk_ms += t.topk_ms;
    sum.push_ops += t.push_ops;
    sum.walk_steps += t.walk_steps;
    query_ms += t.push_ms + t.reduce_ms + t.alias_ms + t.walk_ms + t.topk_ms;
    early_exits += t.early_exit;
    ++replayed;
  }

  const std::unique_ptr<hkpr::WorkspaceEstimator> relax =
      hkpr::EstimatorRegistry::Global().Create("hk-relax", graph, params,
                                               engine_seed, context);
  hkpr::QueryWorkspace relax_ws;
  double relax_ms = 0.0;
  size_t relaxed = 0;
  const int64_t relax_start = NowNs();
  for (NodeId seed : relax_seeds) {
    if (relaxed == kHkRelaxMaxSeeds || MsSince(relax_start) > kHkRelaxBudgetMs) {
      break;
    }
    const int64_t start = NowNs();
    top_k = hkpr::TopKNormalized(graph, relax->EstimateInto(seed, relax_ws),
                                 kTopK);
    relax_ms += MsSince(start);
    ++relaxed;
  }

  // service + net: a MultiGraphService and CommandProcessor set up as the
  // server sets them up. Publish + the first query on the new version
  // times a hot swap; Execute minus SubmitTopK(...).get() on the same
  // cached line times parse, tenant admission and formatting.
  hkpr::GraphStore store;
  store.Publish("default", LoadOrDie(graph_path));
  hkpr::MultiGraphOptions options;
  options.service.cache_capacity = cache_capacity;
  options.service.backend.name = backend;
  hkpr::MultiGraphService service(store, params, engine_seed, options);
  const NodeId probe = stream.front();
  service.SubmitTopK("default", probe, kTopK).result.get();
  std::vector<double> publish_ms;
  for (int r = 0; r < 3; ++r) {
    hkpr::Graph next = LoadOrDie(graph_path);
    const int64_t start = NowNs();
    service.Publish("default", std::move(next));
    const hkpr::QueryResult first =
        service.SubmitTopK("default", probe, kTopK).result.get();
    publish_ms.push_back(MsSince(start));
    if (first.status != hkpr::QueryStatus::kOk || first.from_cache) {
      std::fprintf(stderr, "layers: first query after publish not computed\n");
      return 1;
    }
  }

  hkpr::TenantRegistry tenants;
  hkpr::CommandProcessor processor(store, service, tenants, params, "default");
  hkpr::ClientSession session = processor.NewSession();
  const size_t num_lines = std::min(kCommandLines, stream.size());
  std::vector<std::string> lines;
  for (size_t i = 0; i < num_lines; ++i) {
    lines.push_back("topk " + std::to_string(stream[i]) + " " +
                    std::to_string(kTopK));
    service.SubmitTopK("default", stream[i], kTopK).result.get();  // warm
  }
  // Per line, Execute minus SubmitTopK(...).get(), alternating which runs
  // first; the median difference drops the shared top-k and wake-up noise.
  std::vector<double> command_us;
  size_t response_bytes = 0;
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t i = 0; i < num_lines; ++i) {
      double execute_us = 0.0, submit_us = 0.0;
      for (int step = 0; step < 2; ++step) {
        const int64_t start = NowNs();
        if ((step + r) % 2 == 0) {
          response_bytes += processor.Execute(session, lines[i]).output.size();
          execute_us = static_cast<double>(NowNs() - start) / 1e3;
        } else {
          service.SubmitTopK("default", stream[i], kTopK).result.get();
          submit_us = static_cast<double>(NowNs() - start) / 1e3;
        }
      }
      command_us.push_back(execute_us - submit_us);
    }
  }
  if (response_bytes == 0) return 1;

  const double n_replayed = std::max<double>(1.0, replayed);
  std::printf("{\"graph.load_ms\":%.17g", Median(load_ms));
  std::printf(",\"service.publish_ms\":%.17g", Median(publish_ms));
  std::printf(",\"service.lookup_us\":%.17g", Median(lookup_us));
  std::printf(",\"hkpr.route_us\":%.17g", Median(route_us));
  std::printf(",\"net.cmd_us\":%.17g", Median(command_us));
  std::printf(",\"hkpr.replayed\":%zu", replayed);
  std::printf(",\"hkpr.replay_mismatches\":%zu", mismatches);
  std::printf(",\"hkpr.query_ms\":%.17g", query_ms / n_replayed);
  std::printf(",\"hkpr.push_ms\":%.17g", sum.push_ms / n_replayed);
  std::printf(",\"hkpr.reduce_ms\":%.17g", sum.reduce_ms / n_replayed);
  std::printf(",\"hkpr.alias_ms\":%.17g", sum.alias_ms / n_replayed);
  std::printf(",\"hkpr.walk_ms\":%.17g", sum.walk_ms / n_replayed);
  std::printf(",\"hkpr.topk_ms\":%.17g", sum.topk_ms / n_replayed);
  std::printf(",\"hkpr.early_exit_frac\":%.17g", early_exits / n_replayed);
  std::printf(",\"hkpr.push_ops\":%.17g", sum.push_ops / n_replayed);
  std::printf(",\"hkpr.walk_steps\":%.17g", sum.walk_steps / n_replayed);
  std::printf(",\"baselines.hk_relax_ms\":%.17g",
              relaxed == 0 ? 0.0 : relax_ms / static_cast<double>(relaxed));
  std::printf(",\"baselines.hk_relax_n\":%zu}\n", relaxed);
  return mismatches == 0 && replayed > 0 ? 0 : 1;
}

}  // namespace perfbench
