#include "baselines/crd.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "clustering/sweep.h"
#include "common/flat_map.h"
#include "common/logging.h"
#include "common/sparse_vector.h"

namespace hkpr {

namespace {

/// State of the diffusion, sparse over touched nodes.
struct DiffusionState {
  FlatMap<double> mass;
  FlatMap<uint32_t> label;
  /// Flow sent over each directed arc this inner round, keyed by the arc's
  /// index in the CSR adjacency array (reset between rounds).
  FlatMap<double> arc_flow;
};

/// Push-relabel unit flow: routes excess mass (above d(v)) downhill along
/// admissible arcs (label difference exactly 1, arc flow below capacity).
/// Returns the total mass trapped at the height cap.
double UnitFlow(const Graph& graph, DiffusionState& state,
                const CrdOptions& options, uint64_t* work) {
  state.arc_flow.Clear();
  std::deque<NodeId> active;
  FlatMap<bool> queued;

  const auto excess = [&](NodeId v) {
    return state.mass.GetOr(v, 0.0) - static_cast<double>(graph.Degree(v));
  };
  const auto activate = [&](NodeId v) {
    if (excess(v) <= 1e-12) return;
    if (state.label.GetOr(v, 0) >= options.height_cap) return;
    bool& flag = queued[v];
    if (!flag) {
      flag = true;
      active.push_back(v);
    }
  };

  for (const auto& e : state.mass.entries()) activate(e.key);

  while (!active.empty()) {
    const NodeId v = active.front();
    active.pop_front();
    queued[v] = false;
    double ex = excess(v);
    if (ex <= 1e-12) continue;
    uint32_t& lv = state.label[v];
    if (lv >= options.height_cap) continue;

    const uint64_t row_begin = graph.offsets()[v];
    auto nbrs = graph.Neighbors(v);
    bool admissible_found = false;
    for (size_t i = 0; i < nbrs.size() && ex > 1e-12; ++i) {
      const NodeId u = nbrs[i];
      if (state.label.GetOr(u, 0) + 1 != lv) continue;
      const uint32_t arc = static_cast<uint32_t>(row_begin + i);
      double& used = state.arc_flow[arc];
      const double room = options.capacity - used;
      if (room <= 1e-12) continue;
      admissible_found = true;
      const double amount = std::min(ex, room);
      used += amount;
      state.mass[v] -= amount;
      state.mass[u] += amount;
      ex -= amount;
      if (work != nullptr) ++*work;
      activate(u);
    }
    if (ex > 1e-12) {
      if (!admissible_found) ++lv;  // relabel
      activate(v);
    }
  }

  double trapped = 0.0;
  for (const auto& e : state.mass.entries()) {
    if (state.label.GetOr(e.key, 0) >= options.height_cap) {
      const double ex = e.value - graph.Degree(e.key);
      if (ex > 0.0) trapped += ex;
    }
  }
  return trapped;
}

}  // namespace

FlowClusterResult Crd(const Graph& graph, NodeId seed,
                      const CrdOptions& options) {
  HKPR_CHECK(seed < graph.NumNodes());
  FlowClusterResult out;
  const uint32_t seed_degree = graph.Degree(seed);
  if (seed_degree == 0) return out;

  DiffusionState state;
  // Start with twice the seed's absorbing capacity so the first round
  // already spills to the neighborhood.
  state.mass[seed] = 2.0 * seed_degree;

  uint64_t work = 0;
  double total_mass = state.mass[seed];
  for (uint32_t iter = 0; iter < options.iterations; ++iter) {
    const double trapped = UnitFlow(graph, state, options, &work);
    ++out.flow_rounds;
    if (trapped > options.trapped_fraction * total_mass) break;
    // Double the mass everywhere it settled (capacity releasing step).
    total_mass = 0.0;
    for (auto& e : state.mass.mutable_entries()) {
      e.value *= 2.0;
      total_mass += e.value;
    }
    // Labels reset each outer phase, as in the reference description.
    state.label.Clear();
  }
  out.total_arcs = work;

  // Extract the cluster: sweep over settled mass / degree.
  SparseVector score;
  for (const auto& e : state.mass.entries()) {
    if (e.value > 0.0) score.Add(e.key, e.value);
  }
  SweepResult sweep = SweepCut(graph, score);
  out.cluster = std::move(sweep.cluster);
  out.conductance = sweep.conductance;
  return out;
}

}  // namespace hkpr
