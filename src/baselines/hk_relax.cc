#include "baselines/hk_relax.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace hkpr {

HkRelaxEstimator::HkRelaxEstimator(const Graph& graph,
                                   const HkRelaxOptions& options)
    : graph_(graph), options_(options), kernel_(options.t) {
  HKPR_CHECK(options.eps_a > 0.0 && options.eps_a < 1.0);

  // Truncation degree: smallest N with Poisson tail mass
  // e^{-t} sum_{k > N} t^k/k! <= eps_a / 2. The kernel's CDF gives the tail
  // directly. (The original code uses an equivalent factorial bound; our
  // paper notes N <= 2t log(1/eps_a).)
  uint32_t n_trunc = 1;
  while (n_trunc < kernel_.MaxHop() &&
         kernel_.Psi(n_trunc + 1) > options.eps_a / 2.0) {
    ++n_trunc;
  }
  taylor_degree_ = n_trunc;

  // psis_[j] = sum_{i=0}^{N-j} t^i * j! / (j+i)! via the backward recurrence
  // psis_[N] = 1, psis_[j] = 1 + (t/(j+1)) * psis_[j+1]. These weight the
  // per-level residuals in the error bound and hence in the push threshold.
  psis_.assign(taylor_degree_ + 1, 0.0);
  psis_[taylor_degree_] = 1.0;
  for (uint32_t j = taylor_degree_; j-- > 0;) {
    psis_[j] = 1.0 + psis_[j + 1] * options_.t / static_cast<double>(j + 1);
  }
}

const SparseVector& HkRelaxEstimator::EstimateInto(NodeId seed,
                                                   QueryWorkspace& ws,
                                                   EstimatorStats* stats) {
  HKPR_CHECK(seed < graph_.NumNodes());
  if (stats != nullptr) stats->Reset();
  const uint32_t n_trunc = taylor_degree_;
  const double exp_t = std::exp(options_.t);
  const double exp_neg_t = std::exp(-options_.t);

  // Per-level residuals of the Taylor blocks live in the workspace's residue
  // table (hop k = Taylor level k); ws.result accumulates the unscaled
  // solution (scaled by e^{-t} at the end). The push queue is FIFO over
  // ws.starts with a moving head, holding (position in the level's entry
  // array, level) — the vector only grows within a query, so steady-state
  // queries reuse its capacity instead of allocating a deque. Levels enter
  // the queue in nondecreasing order, so once the head reaches level j no
  // more residual can arrive there: level j is sealed and the frontier moves
  // on to level j+1. `position[u]` is u's entry position at the level
  // receiving residue, written at u's first touch there (the add whose
  // `before` is 0.0) and read only after it, so it is never cleared.
  ws.PrepareQuery(n_trunc);
  ResidueTable& residues = ws.residues;
  const size_t n = graph_.NumNodes();
  SparseVector& x = ws.result;
  if (graph_.Degree(seed) == 0) {
    // The Taylor series would spread the seed's mass over no neighbors and
    // keep only its e^{-t} level-0 share; the heat kernel's walks stop in
    // place at an isolated seed, so its HKPR is exactly e_seed.
    x.Add(seed, 1.0);
    return x;
  }
  std::vector<std::pair<uint32_t, uint32_t>>& queue = ws.starts;
  size_t queue_head = 0;
  std::vector<uint32_t>& position = ws.push_list;
  if (position.size() < n) position.resize(n);

  // Push threshold for an entry (v, j): r >= e^t * eps * d(v) / (2 N psis_j).
  const auto threshold = [&](uint32_t degree, uint32_t j) {
    return exp_t * options_.eps_a * static_cast<double>(degree) /
           (2.0 * static_cast<double>(n_trunc) * psis_[j]);
  };

  residues.OpenFrontier(0, n);
  residues.AddToFrontier(seed, 1.0);
  if (1.0 >= threshold(std::max(graph_.Degree(seed), 1u), 0)) {
    queue.emplace_back(0u, 0u);
  }
  uint32_t frontier_level = 1;
  residues.OpenFrontier(frontier_level, n);

  uint64_t push_ops = 0;
  uint64_t entries = 0;
  while (queue_head < queue.size()) {
    const auto [pos, j] = queue[queue_head++];
    if (j == frontier_level) residues.OpenFrontier(++frontier_level, n);
    const auto [v, mass_v] = residues.Hop(j)[pos];
    if (mass_v <= 0.0) continue;  // already consumed by a re-queue
    residues.ZeroEntry(j, pos);
    x.Add(v, mass_v);
    ++entries;
    const uint32_t d = graph_.Degree(v);
    if (d == 0) continue;
    push_ops += d;

    if (j == n_trunc) continue;  // deepest level: mass retired into x
    if (j + 1 == n_trunc) {
      // Final level: residual would never be pushed again; retire the
      // plain random-walk share directly (reference implementation's
      // truncation rule).
      for (NodeId u : graph_.Neighbors(v)) {
        x.Add(u, mass_v / static_cast<double>(d));
      }
      continue;
    }
    const double mass =
        mass_v * options_.t / (static_cast<double>(j + 1) * d);
    const std::vector<ResidueTable::Entry>& level = residues.Hop(j + 1);
    residues.SpreadToFrontier(
        graph_.Neighbors(v), mass, [&](NodeId u, double before, double ru) {
          if (before == 0.0) {
            position[u] = static_cast<uint32_t>(level.size() - 1);
          }
          const double th = threshold(graph_.Degree(u), j + 1);
          if (before < th && ru >= th) queue.emplace_back(position[u], j + 1);
        });
  }
  residues.SealFrontier();

  // Scale to the heat kernel: rho = e^{-t} * x, in place.
  x.Scale(exp_neg_t);

  if (stats != nullptr) {
    stats->push_operations = push_ops;
    stats->entries_processed = entries;
    stats->peak_bytes = residues.MemoryBytes() + x.MemoryBytes() +
                        queue.capacity() * sizeof(queue[0]) +
                        position.capacity() * sizeof(uint32_t);
  }
  return x;
}

}  // namespace hkpr
