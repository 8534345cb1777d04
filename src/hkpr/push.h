// Deterministic graph-traversal phase: HK-Push (Algorithm 1) and
// HK-Push+ (Algorithm 4).
//
// Both algorithms start from r_0[s] = 1 and repeatedly convert a (node, hop)
// residue entry: an eta(k)/psi(k) fraction becomes reserve at the node, the
// remainder is split evenly over the node's neighbors at hop k+1. Residue
// mass only moves forward in hop index, so draining hops in ascending order
// processes each entry at most once — this is how the "while exists (v,k)
// above threshold" loops are realized.
//
// While hop k drains, the neighbor shares go into the residue table's
// node-indexed frontier, which holds hop k+1 (see hkpr/residue.h). Every
// share is strictly positive, which is what lets the frontier find a
// node's first touch from its value alone. When hop k has drained, hop k+1
// is sealed into its entry array, and the seal lists the entries above the
// push threshold (the next hop's drain walks that list) and returns the
// hop's max r/d(v), its term of Inequality (11). The table is complete
// whenever a push routine returns.

#ifndef HKPR_HKPR_PUSH_H_
#define HKPR_HKPR_PUSH_H_

#include <cstdint>

#include "common/sparse_vector.h"
#include "graph/graph.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/residue.h"
#include "hkpr/workspace.h"

namespace hkpr {

/// Output of a push phase: the reserve vector q_s (a lower bound on rho_s,
/// Lemma 1) plus the residue table the random-walk phase consumes.
struct PushResult {
  SparseVector reserve;
  ResidueTable residues;
  /// Push operations, one per neighbor update (paper's accounting).
  uint64_t push_operations = 0;
  /// (node, hop) entries converted.
  uint64_t entries_processed = 0;
  /// HK-Push+ only: true when the per-hop bound certified Inequality (11)
  /// with eps_a = eps_r * delta at the end of a hop. The exact test that
  /// ends a drain past the hop cap does not set it.
  bool hit_absolute_target = false;
  /// HK-Push+ only: true when the push budget n_p was exhausted.
  bool hit_budget = false;
};

/// Algorithm 1: pushes every (v, k) entry whose residue exceeds
/// r_max * d(v), for hops 0..kernel.MaxHop()-1. Residue parked at the final
/// hop is left for the walk phase (walks there terminate immediately).
PushResult HkPush(const Graph& graph, const HeatKernel& kernel, NodeId seed,
                  double r_max);

/// Options of HK-Push+ (Algorithm 4).
struct HkPushPlusOptions {
  /// Relative error threshold eps_r.
  double eps_r = 0.5;
  /// Significance threshold delta.
  double delta = 1e-6;
  /// Hop cap K; pushes occur only at hops k < K (see ChooseHopCap), unless
  /// `drain_past_hop_cap`.
  uint32_t hop_cap = 10;
  /// Push-operation budget n_p; the loop stops once this many neighbor
  /// updates have been performed.
  uint64_t push_budget = 1'000'000;
  /// Enables the early-exit test on the residue bound (Line 6), run once
  /// per hop. Disabled only by the ablation benchmark.
  bool enable_early_exit = true;
  /// Keeps draining past the hop cap while Inequality (11) fails. Off is
  /// the paper's Algorithm 4, which stops at hop K; see HkPushPlus.
  bool drain_past_hop_cap = false;
};

/// Algorithm 4: pushes entries with residue above (eps_r*delta/K) * d(v) at
/// hops k < K, stopping early when the push budget is exhausted or when an
/// upper bound on sum_k max_v r_k[v]/d(v) certifies Inequality (11) with
/// eps_a = eps_r * delta. The bound sums, over the hops, each sealed hop's
/// max r/d(v), clamped to the threshold once the hop has drained. It only
/// grows while a hop drains, so it is tested once per hop, after the next
/// hop is sealed; Line 6's per-push test could pass only after the seed's
/// own push, which is the whole of hop 0.
///
/// With `drain_past_hop_cap`, a drain that reaches hop K uncertified runs
/// the exact test (11) on the sealed table. While it fails, hops K, K+1, ...
/// are drained one at a time, with the same threshold and bound, and the
/// exact test is re-run after each. The drain stops when the test passes,
/// the budget runs out, hop kernel.MaxHop() is reached or a hop receives no
/// residue, after which nothing can change. A seed that certifies at K
/// gets exactly the hard cap's result: the table then only has more
/// (empty) hops. Extra pushes keep the Lemma 1 invariant, so whatever
/// residue is left is still a valid input to the walk phase.
///
/// An isolated seed (d(s) = 0) gets its exact HKPR, e_s, as the reserve,
/// with no residue left and hit_absolute_target set.
PushResult HkPushPlus(const Graph& graph, const HeatKernel& kernel,
                      NodeId seed, const HkPushPlusOptions& options);

/// Work counters of a workspace-based push phase. Plain value type so the
/// allocation-free entry points below have nothing to heap-allocate.
struct PushCounters {
  uint64_t push_operations = 0;
  uint64_t entries_processed = 0;
  bool hit_absolute_target = false;
  bool hit_budget = false;
  /// A drain past the hop cap stopped because the exact test (11) passed
  /// on the sealed table, so a caller need not run it again.
  /// hit_absolute_target stays false on that exit.
  bool passed_exact_test = false;
};

/// Algorithm 1 into a reusable workspace: the reserve is accumulated into
/// `ws.result` (cleared first) and the residues into `ws.residues`, sealed
/// on return. Allocation-free once the workspace capacities have warmed up
/// and its frontier covers the graph's nodes.
PushCounters HkPushInto(const Graph& graph, const HeatKernel& kernel,
                        NodeId seed, double r_max, QueryWorkspace& ws);

/// Algorithm 4 into a reusable workspace; see HkPushInto.
PushCounters HkPushPlusInto(const Graph& graph, const HeatKernel& kernel,
                            NodeId seed, const HkPushPlusOptions& options,
                            QueryWorkspace& ws);

}  // namespace hkpr

#endif  // HKPR_HKPR_PUSH_H_
