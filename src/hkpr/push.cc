#include "hkpr/push.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace hkpr {

namespace {

/// Drains hop k: pushes the entries `ws.push_list` names, which sealing hop
/// k listed, into the frontier, which holds hop k+1. Each push loads its
/// node's adjacency row, a dependent miss on a graph larger than cache, so
/// the row two pushes ahead is prefetched, and its row start four pushes
/// ahead. Returns false when the push budget ran out before an entry.
bool DrainHop(const Graph& graph, const HeatKernel& kernel, uint32_t k,
              uint64_t push_budget, QueryWorkspace& ws, PushCounters& out) {
  ResidueTable& residues = ws.residues;
  const std::vector<ResidueTable::Entry>& entries = residues.Hop(k);
  const std::vector<uint32_t>& push_list = ws.push_list;
  const double reserve_frac = kernel.ReserveFraction(k);
  const size_t num_pushes = push_list.size();
  for (size_t j = 0; j < num_pushes; ++j) {
    if (j + 4 < num_pushes) graph.PrefetchNode(entries[push_list[j + 4]].key);
    if (j + 2 < num_pushes) {
      graph.PrefetchNeighbors(entries[push_list[j + 2]].key);
    }
    if (out.push_operations >= push_budget) {
      out.hit_budget = true;
      return false;
    }
    const uint32_t i = push_list[j];
    const NodeId v = entries[i].key;
    const double r = entries[i].value;
    const uint32_t d = graph.Degree(v);
    ws.result.Add(v, reserve_frac * r);
    const double share = (1.0 - reserve_frac) * r / d;
    residues.SpreadToFrontier(graph.Neighbors(v), share,
                              [](NodeId, double, double) {});
    residues.ZeroEntry(k, i);
    out.push_operations += d;
    ++out.entries_processed;
  }
  return true;
}

}  // namespace

PushCounters HkPushInto(const Graph& graph, const HeatKernel& kernel,
                        NodeId seed, double r_max, QueryWorkspace& ws) {
  HKPR_CHECK(seed < graph.NumNodes());
  HKPR_CHECK(r_max > 0.0);
  const uint32_t max_hop = kernel.MaxHop();
  const size_t n = graph.NumNodes();
  ResidueTable& residues = ws.residues;
  ws.PrepareQuery(max_hop);
  residues.OpenFrontier(0, n);
  residues.AddToFrontier(seed, 1.0);
  residues.SealFrontier(graph, r_max, ws.push_list);
  PushCounters out;

  // Hop-ordered drain: residues only flow k -> k+1, so hop k is final once
  // sealed, and sealing it lists the entries above r_max * d(v).
  for (uint32_t k = 0; k < max_hop; ++k) {
    residues.OpenFrontier(k + 1, n);
    DrainHop(graph, kernel, k, UINT64_MAX, ws, out);
    residues.SealFrontier(graph, r_max, ws.push_list);
  }
  return out;
}

namespace {

/// HK-Push+'s drain, over the hops of `ws.residues`: 0..cap, or
/// 0..MaxHop() when draining past the cap. Expects hop 0 open with the
/// seed. Returns with the table sealed, except on the budget exit, which
/// leaves the frontier open at the hop receiving residue; HkPushPlusInto
/// seals it.
PushCounters DrainPlus(const Graph& graph, const HeatKernel& kernel,
                       uint32_t cap, const HkPushPlusOptions& options,
                       QueryWorkspace& ws) {
  ResidueTable& residues = ws.residues;
  PushCounters out;
  const size_t n = graph.NumNodes();
  const double eps_a = options.eps_r * options.delta;
  const double threshold = eps_a / static_cast<double>(cap);
  const uint32_t last_hop = residues.max_hop();

  // An upper bound on the left side of Inequality (11), the sum over hops
  // of max_v r_k[v]/d(v). Sealing a hop yields its exact max (`bound` is
  // the max of hop k, the hop draining). Once hop k has drained, every
  // entry left there is at most threshold*d(v), so its term is at most
  // `threshold`; `drained` sums these terms over hops 0..k-1. The sum is of
  // nonnegative terms only, so it carries no cancellation error however
  // small eps_a is. While hop k drains, only hop k+1's max can change, and
  // adds only raise it, so the bound is tested once per hop, after hop k+1
  // is sealed.
  double bound = residues.SealFrontier(graph, threshold, ws.push_list);
  double drained = 0.0;

  for (uint32_t k = 0; k < last_hop; ++k) {
    // Past the cap, hop k is drained only while the exact test (11) on the
    // sealed table fails. At k == cap this is the test TEA+ runs after a
    // hard-capped drain, so a seed that passes it stops exactly there. The
    // test skips zeroed entries, so a drained hop's maintained sum, which
    // can read a few ulps below zero, never enters the decision. An empty
    // hop k means hop k-1 pushed nothing, so the table is final.
    if (k >= cap) {
      if (residues.Hop(k).empty()) return out;
      if (residues.MaxNormalizedResidueSum(graph) <= eps_a) {
        out.passed_exact_test = true;
        return out;
      }
    }
    residues.OpenFrontier(k + 1, n);
    if (!DrainHop(graph, kernel, k, options.push_budget, ws, out)) return out;
    drained += std::min(bound, threshold);
    bound = residues.SealFrontier(graph, threshold, ws.push_list);
    if (options.enable_early_exit && drained + bound <= eps_a) {
      out.hit_absolute_target = true;
      return out;
    }
  }
  return out;
}

}  // namespace

PushCounters HkPushPlusInto(const Graph& graph, const HeatKernel& kernel,
                            NodeId seed, const HkPushPlusOptions& options,
                            QueryWorkspace& ws) {
  HKPR_CHECK(seed < graph.NumNodes());
  HKPR_CHECK(options.eps_r > 0.0 && options.delta > 0.0);
  HKPR_CHECK(options.hop_cap >= 1);
  const uint32_t cap = std::min(options.hop_cap, kernel.MaxHop());
  ws.PrepareQuery(options.drain_past_hop_cap ? kernel.MaxHop() : cap);
  if (graph.Degree(seed) == 0) {
    // Every walk from an isolated seed stops in place, so its HKPR is
    // exactly e_seed. The seed is the only node that can hold residue at
    // degree 0, and sealing skips such entries, so the drain would leave
    // its unit residue behind and the bound would certify that table.
    // Reserve it instead: no residue is left, and (11) holds.
    ws.result.Add(seed, 1.0);
    PushCounters out;
    out.hit_absolute_target = true;
    return out;
  }
  ws.residues.OpenFrontier(0, graph.NumNodes());
  ws.residues.AddToFrontier(seed, 1.0);
  const PushCounters out = DrainPlus(graph, kernel, cap, options, ws);
  // Every exit (full drain, early exit, budget) leaves the table sealed.
  ws.residues.SealFrontier();
  return out;
}

namespace {

PushResult ToPushResult(QueryWorkspace&& ws, const PushCounters& counters) {
  PushResult out{std::move(ws.result), std::move(ws.residues)};
  out.push_operations = counters.push_operations;
  out.entries_processed = counters.entries_processed;
  out.hit_absolute_target = counters.hit_absolute_target;
  out.hit_budget = counters.hit_budget;
  return out;
}

}  // namespace

PushResult HkPush(const Graph& graph, const HeatKernel& kernel, NodeId seed,
                  double r_max) {
  QueryWorkspace ws;
  const PushCounters counters = HkPushInto(graph, kernel, seed, r_max, ws);
  return ToPushResult(std::move(ws), counters);
}

PushResult HkPushPlus(const Graph& graph, const HeatKernel& kernel,
                      NodeId seed, const HkPushPlusOptions& options) {
  QueryWorkspace ws;
  const PushCounters counters =
      HkPushPlusInto(graph, kernel, seed, options, ws);
  return ToPushResult(std::move(ws), counters);
}

}  // namespace hkpr
