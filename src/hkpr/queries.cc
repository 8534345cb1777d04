#include "hkpr/queries.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace hkpr {

std::vector<ScoredNode> TopKNormalized(const Graph& graph,
                                       const SparseVector& estimate,
                                       size_t k) {
  const auto better = [](const ScoredNode& a, const ScoredNode& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  };
  // A heap of the best k seen so far under `better`, whose front is the
  // worst of them: a candidate replaces the front only if it beats it.
  std::vector<ScoredNode> top;
  if (k == 0) return top;
  top.reserve(std::min(k, estimate.nnz()));
  const double offset = estimate.degree_offset();
  for (const auto& e : estimate.entries()) {
    const uint32_t d = graph.Degree(e.key);
    if (d == 0 || e.value <= 0.0) continue;
    // ValueWithOffset(e.key, d), without looking the value up again.
    const ScoredNode candidate{e.key, (e.value + offset * d) / d};
    if (top.size() < k) {
      top.push_back(candidate);
      std::push_heap(top.begin(), top.end(), better);
    } else if (better(candidate, top.front())) {
      std::pop_heap(top.begin(), top.end(), better);
      top.back() = candidate;
      std::push_heap(top.begin(), top.end(), better);
    }
  }
  std::sort_heap(top.begin(), top.end(), better);
  return top;
}

std::vector<ScoredNode> TopKQuery(const Graph& graph,
                                  WorkspaceEstimator& estimator, NodeId seed,
                                  size_t k) {
  const SparseVector estimate = estimator.Estimate(seed);
  return TopKNormalized(graph, estimate, k);
}

SparseVector EstimateSeedSet(const Graph& graph,
                             WorkspaceEstimator& estimator,
                             std::span<const NodeId> seeds,
                             std::span<const double> weights) {
  HKPR_CHECK(!seeds.empty());
  HKPR_CHECK(weights.empty() || weights.size() == seeds.size())
      << "weights must be empty or match seeds";
  double total = 0.0;
  if (!weights.empty()) {
    for (double w : weights) {
      HKPR_CHECK(w >= 0.0);
      total += w;
    }
    HKPR_CHECK(total > 0.0) << "seed-set weights must have positive sum";
  }

  SparseVector combined;
  double combined_offset = 0.0;
  for (size_t i = 0; i < seeds.size(); ++i) {
    HKPR_CHECK(seeds[i] < graph.NumNodes()) << "seed out of range";
    const double w = weights.empty()
                         ? 1.0 / static_cast<double>(seeds.size())
                         : weights[i] / total;
    if (w == 0.0) continue;
    const SparseVector estimate = estimator.Estimate(seeds[i]);
    for (const auto& e : estimate.entries()) {
      combined.Add(e.key, w * e.value);
    }
    combined_offset += w * estimate.degree_offset();
  }
  combined.set_degree_offset(combined_offset);
  return combined;
}

uint64_t QueryRngSeed(uint64_t base_seed, uint64_t query_index) {
  uint64_t z = base_seed + (query_index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

QueryExecutor::PlanKey QueryExecutor::KeyOf(uint32_t backend_id,
                                            const ApproxParams& params) {
  PlanKey key;
  key.backend_id = backend_id;
  key.t_bits = std::bit_cast<uint64_t>(params.t);
  key.eps_r_bits = std::bit_cast<uint64_t>(params.eps_r);
  key.delta_bits = std::bit_cast<uint64_t>(params.delta);
  key.p_f_bits = std::bit_cast<uint64_t>(params.p_f);
  return key;
}

QueryExecutor::QueryExecutor(const Graph& graph, const ApproxParams& params,
                             uint64_t base_seed, const BackendSpec& spec)
    : graph_(graph), base_seed_(base_seed), context_(spec.context) {
  const BackendInfo* info = EstimatorRegistry::Global().Find(spec.name);
  HKPR_CHECK(info != nullptr) << "unknown estimator backend \"" << spec.name
                              << "\" (see EstimatorRegistry::Names())";
  // A spec resolved by ResolvedSpec() carries p'_f for the construction
  // params; remember which p_f it belongs to so lazily routed plans with
  // the same p_f reuse it instead of re-scanning.
  memo_pf_ = params.p_f;
  memo_pf_prime_ = context_.pf_prime;
  default_plan_.backend = spec.name;
  // The registry's collision-checked id, not a local re-hash of the name.
  default_plan_.backend_id = info->stable_id;
  default_plan_.params = params;
  // The constructor seed is irrelevant for randomized backends: every
  // query re-seeds the estimator from (base_seed_, query index).
  estimators_.push_back(
      PlanEstimator{KeyOf(info->stable_id, params),
                    info->factory(graph, params, base_seed, spec.context)});
}

double QueryExecutor::PfPrimeFor(double p_f) {
  if (memo_pf_prime_ < 0.0 ||
      std::bit_cast<uint64_t>(memo_pf_) != std::bit_cast<uint64_t>(p_f)) {
    memo_pf_prime_ = ComputePfPrime(graph_, p_f);
    memo_pf_ = p_f;
  }
  return memo_pf_prime_;
}

WorkspaceEstimator& QueryExecutor::EstimatorFor(const QueryPlan& plan) {
  const PlanKey key = KeyOf(plan.backend_id, plan.params);
  // Entry 0 is the pinned default; entries behind it are kept in LRU
  // order (oldest first), maintained by rotating hits to the back.
  for (size_t i = 0; i < estimators_.size(); ++i) {
    if (!(estimators_[i].key == key)) continue;
    WorkspaceEstimator& estimator = *estimators_[i].estimator;
    if (i > 0 && i + 1 < estimators_.size()) {
      std::rotate(estimators_.begin() + i, estimators_.begin() + i + 1,
                  estimators_.end());
    }
    return estimator;  // the heap object is stable across the rotate
  }
  // First query on this plan: build its estimator from the registry with
  // the executor's shared tuning context. Upstream plan resolution
  // validated the name, so an unknown backend here is a wiring bug.
  const BackendInfo* info = EstimatorRegistry::Global().Find(plan.backend);
  HKPR_CHECK(info != nullptr && info->stable_id == plan.backend_id)
      << "query plan names unregistered backend \"" << plan.backend << "\"";
  BackendContext context = context_;
  if (info->randomized) context.pf_prime = PfPrimeFor(plan.params.p_f);
  if (estimators_.size() >= kMaxPlanEstimators) {
    // Bounded: evict the least-recently-used non-default plan so a
    // stream of distinct overrides cannot grow memory without bound.
    // Rebuilding later is bit-identical (see kMaxPlanEstimators).
    estimators_.erase(estimators_.begin() + 1);
  }
  estimators_.push_back(PlanEstimator{
      key, info->factory(graph_, plan.params, base_seed_, context)});
  return *estimators_.back().estimator;
}

const SparseVector& QueryExecutor::Run(WorkspaceEstimator& estimator,
                                       NodeId seed, uint64_t query_index) {
  HKPR_CHECK(seed < graph_.NumNodes()) << "query seed out of range";
  estimator.Reseed(QueryRngSeed(base_seed_, query_index));
  return estimator.EstimateInto(seed, workspace_);
}

const SparseVector& QueryExecutor::AnswerInto(NodeId seed,
                                              uint64_t query_index) {
  // The default plan's estimator is always entry 0 — no key scan on the
  // unrouted fast path.
  return Run(*estimators_.front().estimator, seed, query_index);
}

const SparseVector& QueryExecutor::AnswerInto(NodeId seed,
                                              uint64_t query_index,
                                              const QueryPlan& plan) {
  return Run(EstimatorFor(plan), seed, query_index);
}

SparseVector QueryExecutor::Answer(NodeId seed, uint64_t query_index) {
  // Compact: the returned vector must not inherit the workspace's warmed-up
  // table capacity (one hub query would bloat every later small result
  // answered by this executor).
  return AnswerInto(seed, query_index).CompactCopy();
}

SparseVector QueryExecutor::Answer(NodeId seed, uint64_t query_index,
                                   const QueryPlan& plan) {
  return AnswerInto(seed, query_index, plan).CompactCopy();
}

}  // namespace hkpr
