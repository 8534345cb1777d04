#include "hkpr/push.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace hkpr {

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
  PushCounters out;

  // Hop-ordered drain: residues only flow k -> k+1, so hop k is sealed and
  // final once the frontier moves on to hop k+1.
  for (uint32_t k = 0; k < max_hop; ++k) {
    residues.OpenFrontier(k + 1, n);
    const std::vector<ResidueTable::Entry>& entries = residues.Hop(k);
    for (size_t i = 0; i < entries.size(); ++i) {
      const NodeId v = entries[i].key;
      const double r = entries[i].value;
      const uint32_t d = graph.Degree(v);
      if (d == 0 || r <= r_max * d) continue;
      const double reserve_frac = kernel.ReserveFraction(k);
      ws.result.Add(v, reserve_frac * r);
      const double share = (1.0 - reserve_frac) * r / d;
      residues.SpreadToFrontier(graph.Neighbors(v), share,
                                [](NodeId, double, double) {});
      residues.ZeroEntry(k, i);
      out.push_operations += d;
      ++out.entries_processed;
    }
  }
  residues.SealFrontier();
  return out;
}

namespace {

/// HK-Push+'s drain, over the hops of `ws.residues`: 0..cap, or
/// 0..MaxHop() when draining past the cap. Leaves the frontier open at
/// whichever hop receives residue when it stops; HkPushPlusInto seals it.
PushCounters DrainPlus(const Graph& graph, const HeatKernel& kernel,
                       NodeId seed, uint32_t cap,
                       const HkPushPlusOptions& options, QueryWorkspace& ws) {
  ResidueTable& residues = ws.residues;
  PushCounters out;
  const size_t n = graph.NumNodes();
  const double eps_a = options.eps_r * options.delta;
  const double threshold = eps_a / static_cast<double>(cap);
  const uint32_t last_hop = residues.max_hop();

  // Increase-only upper bounds on max_v r_k[v]/d(v) per hop. Adding residue
  // raises the bound exactly; zeroing an entry leaves it stale but still an
  // upper bound, and once hop k is fully drained every surviving entry is
  // below `threshold`, so the bound is then clamped to it. The loop may
  // terminate as soon as the bound sum certifies Inequality (11).
  std::vector<double>& norm_bound = ws.norm_bound;
  norm_bound.assign(static_cast<size_t>(last_hop) + 1, 0.0);
  const uint32_t seed_degree = graph.Degree(seed);
  norm_bound[0] = seed_degree > 0 ? 1.0 / seed_degree : 0.0;
  double bound_total = norm_bound[0];

  for (uint32_t k = 0; k < last_hop; ++k) {
    // Past the cap, hop k is drained only while the exact test (11) on the
    // sealed table fails. At k == cap this is the test TEA+ runs after a
    // hard-capped drain, so a seed that passes it stops exactly there. The
    // test skips zeroed entries, so a drained hop's maintained sum, which
    // can read a few ulps below zero, never enters the decision. An empty
    // hop k means hop k-1 pushed nothing, so the table is final.
    if (k >= cap) {
      residues.SealFrontier();
      if (residues.Hop(k).empty() ||
          residues.MaxNormalizedResidueSum(graph) <= eps_a) {
        return out;
      }
    }
    residues.OpenFrontier(k + 1, n);
    const std::vector<ResidueTable::Entry>& entries = residues.Hop(k);
    const double reserve_frac = kernel.ReserveFraction(k);
    for (size_t i = 0; i < entries.size(); ++i) {
      const NodeId v = entries[i].key;
      const double r = entries[i].value;
      const uint32_t d = graph.Degree(v);
      if (d == 0 || r <= threshold * d) continue;
      if (out.push_operations >= options.push_budget) {
        out.hit_budget = true;
        return out;
      }
      ws.result.Add(v, reserve_frac * r);
      const double share = (1.0 - reserve_frac) * r / d;
      double bound = norm_bound[k + 1];
      residues.SpreadToFrontier(
          graph.Neighbors(v), share, [&](NodeId u, double, double new_r) {
            const double norm = new_r / graph.Degree(u);
            if (norm > bound) {
              bound_total += norm - bound;
              bound = norm;
            }
          });
      norm_bound[k + 1] = bound;
      residues.ZeroEntry(k, i);
      out.push_operations += d;
      ++out.entries_processed;

      if (options.enable_early_exit && bound_total <= eps_a) {
        out.hit_absolute_target = true;
        return out;
      }
    }
    // Hop k drained: all remaining residues here are below threshold*d(v).
    if (norm_bound[k] > threshold) {
      bound_total -= norm_bound[k] - threshold;
      norm_bound[k] = threshold;
    }
    if (options.enable_early_exit && bound_total <= eps_a) {
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
  ws.residues.OpenFrontier(0, graph.NumNodes());
  ws.residues.AddToFrontier(seed, 1.0);
  const PushCounters out = DrainPlus(graph, kernel, seed, cap, options, ws);
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
