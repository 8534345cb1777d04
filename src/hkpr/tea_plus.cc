#include "hkpr/tea_plus.h"

#include <cmath>

#include "common/logging.h"
#include "hkpr/push.h"

namespace hkpr {

void ReduceResidues(const Graph& graph, const TeaPlusOptions& options,
                    double eps_delta, ResidueTable& residues) {
  const double total = residues.TotalSum();
  if (total <= 0.0) return;
  const uint32_t num_hops = residues.max_hop() + 1;
  for (uint32_t k = 0; k < num_hops; ++k) {
    const double beta_k = options.beta_mode == BetaMode::kProportionalToHopSum
                              ? residues.HopSum(k) / total
                              : 1.0 / static_cast<double>(num_hops);
    if (beta_k <= 0.0) continue;
    const double cut = beta_k * eps_delta;
    for (auto& e : residues.MutableHop(k)) {
      if (e.value <= 0.0) continue;
      const double reduced = e.value - cut * graph.Degree(e.key);
      e.value = reduced > 0.0 ? reduced : 0.0;
    }
  }
  residues.RecomputeSums();
}

TeaPlusEstimator::TeaPlusEstimator(const Graph& graph,
                                   const ApproxParams& params, uint64_t seed,
                                   const TeaPlusOptions& options,
                                   double pf_prime)
    : graph_(graph),
      params_(params),
      options_(options),
      kernel_(params.t),
      seed_(seed) {
  if (pf_prime < 0.0) pf_prime = ComputePfPrime(graph, params.p_f);
  omega_ = OmegaTeaPlus(params, pf_prime);
  push_budget_ = static_cast<uint64_t>(std::ceil(omega_ * params.t / 2.0));
  hop_cap_ = ChooseHopCap(options.c, params, graph.AverageDegree(),
                          kernel_.MaxHop());
}

const SparseVector& TeaPlusEstimator::EstimateInto(NodeId seed,
                                                   QueryWorkspace& ws,
                                                   EstimatorStats* stats) {
  HKPR_CHECK(seed < graph_.NumNodes());
  if (stats != nullptr) stats->Reset();
  const double eps_delta = params_.eps_r * params_.delta;
  const uint64_t epoch = epoch_++;

  // Phase 1: budgeted push.
  HkPushPlusOptions push_options;
  push_options.eps_r = params_.eps_r;
  push_options.delta = params_.delta;
  push_options.hop_cap = hop_cap_;
  push_options.push_budget = push_budget_;
  push_options.enable_early_exit = options_.enable_early_exit;
  push_options.drain_past_hop_cap = options_.drain_past_hop_cap;
  const PushCounters push =
      HkPushPlusInto(graph_, kernel_, seed, push_options, ws);
  SparseVector& rho = ws.result;

  if (stats != nullptr) {
    stats->push_operations = push.push_operations;
    stats->entries_processed = push.entries_processed;
  }

  // Line 7: if Inequality (11) holds with eps_a = eps_r*delta, the reserve
  // alone is a (d,eps_r,delta)-approximation (Theorem 2). The push's bound
  // certificate implies the exact test, and a drain past the hop cap may
  // have just passed it on this same table, so check those first (free).
  const bool absolute_ok =
      push.hit_absolute_target || push.passed_exact_test ||
      ws.residues.MaxNormalizedResidueSum(graph_) <= eps_delta;
  if (absolute_ok) {
    if (stats != nullptr) {
      stats->early_exit = true;
      stats->peak_bytes = ws.residues.MemoryBytes() + rho.MemoryBytes();
    }
    return rho;
  }

  // Lines 8-11: residue reduction. Each residue r_k[u] is lowered by
  // beta_k * eps_r * delta * d(u); the induced underestimation is bounded by
  // eps_r*delta*d(v) in total (Inequality 19) and recentered by the final
  // offset below.
  if (options_.enable_residue_reduction) {
    ReduceResidues(graph_, options_, eps_delta, ws.residues);
  }

  // Lines 12-17: walk phase on the reduced residues (as in TEA).
  const double alpha = ws.residues.TotalSum();
  const uint64_t num_walks =
      alpha > 0.0 ? static_cast<uint64_t>(std::ceil(alpha * omega_)) : 0;
  uint64_t steps = 0;
  size_t alias_bytes = 0;
  if (num_walks > 0) {
    ws.CollectWalkStarts();
    alias_bytes = ws.alias.MemoryBytes() +
                  ws.starts.capacity() * sizeof(ws.starts[0]) +
                  ws.weights.capacity() * sizeof(double);
    const WalkStartSet start_set{&ws.alias, ws.starts.data(), 0};
    steps = RunWalkPhase(graph_, kernel_, start_set,
                         WalkStreamSeed(seed_, epoch), num_walks,
                         alpha / static_cast<double>(num_walks),
                         options_.walk_kernel, ws);
    alias_bytes += ws.walk_ends.capacity() * sizeof(NodeId);
  }

  // Lines 18-19: recenter the reduction error. Stored as a scalar and
  // applied on access (rank-invariant for sweeps).
  if (options_.enable_residue_reduction) {
    rho.set_degree_offset(eps_delta / 2.0);
  }

  if (stats != nullptr) {
    stats->num_walks = num_walks;
    stats->walk_steps = steps;
    stats->peak_bytes =
        ws.residues.MemoryBytes() + rho.MemoryBytes() + alias_bytes;
  }
  return rho;
}

}  // namespace hkpr
