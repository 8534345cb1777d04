// Bit-for-bit reference tests for the push phase on the dense frontier.
//
// The reference below is the hash-map implementation the frontier replaced:
// one FlatMap per hop, indexed by node, whose insertion-ordered entries are
// the residue table's entries. HK-Push, HK-Push+ and hk-relax must produce
// exactly its reserves, residues (entry order and value bits), hop sums and
// work counters, on every exit path. Estimator answers downstream of the
// push (reduction, alias table, walks) read these entries in this order, so
// this is what keeps them bit-identical to the hash-map implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/hk_relax.h"
#include "common/flat_map.h"
#include "common/sparse_vector.h"
#include "graph/generators.h"
#include "hkpr/push.h"
#include "test_util.h"

namespace hkpr {
namespace {

/// Per-hop residues keyed by node in hash maps, with incrementally
/// maintained hop sums.
struct MapResidues {
  explicit MapResidues(uint32_t max_hop)
      : hops(max_hop + 1), hop_sum(max_hop + 1, 0.0) {}

  double Add(uint32_t k, NodeId v, double delta) {
    double& slot = hops[k][v];
    slot += delta;
    hop_sum[k] += delta;
    return slot;
  }

  void Zero(uint32_t k, NodeId v) {
    if (hops[k].Contains(v)) {
      double& slot = hops[k][v];
      hop_sum[k] -= slot;
      slot = 0.0;
    }
  }

  std::vector<FlatMap<double>> hops;
  std::vector<double> hop_sum;
};

struct MapPush {
  SparseVector reserve;
  MapResidues residues{0};
  PushCounters counters;
};

MapPush MapHkPush(const Graph& graph, const HeatKernel& kernel, NodeId seed,
                  double r_max) {
  const uint32_t max_hop = kernel.MaxHop();
  MapPush out;
  out.residues = MapResidues(max_hop);
  out.residues.Add(0, seed, 1.0);
  for (uint32_t k = 0; k < max_hop; ++k) {
    const auto& entries = out.residues.hops[k].entries();
    for (size_t i = 0; i < entries.size(); ++i) {
      const NodeId v = entries[i].key;
      const double r = entries[i].value;
      const uint32_t d = graph.Degree(v);
      if (d == 0 || r <= r_max * d) continue;
      const double reserve_frac = kernel.ReserveFraction(k);
      out.reserve.Add(v, reserve_frac * r);
      const double share = (1.0 - reserve_frac) * r / d;
      for (NodeId u : graph.Neighbors(v)) out.residues.Add(k + 1, u, share);
      out.residues.Zero(k, v);
      out.counters.push_operations += d;
      ++out.counters.entries_processed;
    }
  }
  return out;
}

MapPush MapHkPushPlus(const Graph& graph, const HeatKernel& kernel,
                      NodeId seed, const HkPushPlusOptions& options) {
  const uint32_t cap = std::min(options.hop_cap, kernel.MaxHop());
  MapPush out;
  out.residues = MapResidues(cap);
  out.residues.Add(0, seed, 1.0);
  PushCounters& c = out.counters;

  const double eps_a = options.eps_r * options.delta;
  const double threshold = eps_a / static_cast<double>(cap);
  std::vector<double> norm_bound(static_cast<size_t>(cap) + 1, 0.0);
  const uint32_t seed_degree = graph.Degree(seed);
  norm_bound[0] = seed_degree > 0 ? 1.0 / seed_degree : 0.0;
  double bound_total = norm_bound[0];

  for (uint32_t k = 0; k < cap; ++k) {
    const auto& entries = out.residues.hops[k].entries();
    const double reserve_frac = kernel.ReserveFraction(k);
    for (size_t i = 0; i < entries.size(); ++i) {
      const NodeId v = entries[i].key;
      const double r = entries[i].value;
      const uint32_t d = graph.Degree(v);
      if (d == 0 || r <= threshold * d) continue;
      if (c.push_operations >= options.push_budget) {
        c.hit_budget = true;
        return out;
      }
      out.reserve.Add(v, reserve_frac * r);
      const double share = (1.0 - reserve_frac) * r / d;
      for (NodeId u : graph.Neighbors(v)) {
        const double new_r = out.residues.Add(k + 1, u, share);
        const double norm = new_r / graph.Degree(u);
        if (norm > norm_bound[k + 1]) {
          bound_total += norm - norm_bound[k + 1];
          norm_bound[k + 1] = norm;
        }
      }
      out.residues.Zero(k, v);
      c.push_operations += d;
      ++c.entries_processed;
      if (options.enable_early_exit && bound_total <= eps_a) {
        c.hit_absolute_target = true;
        return out;
      }
    }
    if (norm_bound[k] > threshold) {
      bound_total -= norm_bound[k] - threshold;
      norm_bound[k] = threshold;
    }
    if (options.enable_early_exit && bound_total <= eps_a) {
      c.hit_absolute_target = true;
      return out;
    }
  }
  return out;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSamePush(const PushCounters& got_counters, const QueryWorkspace& ws,
                    const MapPush& want) {
  EXPECT_EQ(got_counters.push_operations, want.counters.push_operations);
  EXPECT_EQ(got_counters.entries_processed, want.counters.entries_processed);
  EXPECT_EQ(got_counters.hit_absolute_target,
            want.counters.hit_absolute_target);
  EXPECT_EQ(got_counters.hit_budget, want.counters.hit_budget);
  {
    SCOPED_TRACE("reserve");
    testing::ExpectBitIdentical(ws.result, want.reserve);
  }
  const ResidueTable& got = ws.residues;
  ASSERT_EQ(got.max_hop() + 1, want.residues.hops.size());
  for (uint32_t k = 0; k <= got.max_hop(); ++k) {
    SCOPED_TRACE("hop " + std::to_string(k));
    const auto& want_entries = want.residues.hops[k].entries();
    const std::vector<ResidueTable::Entry>& got_entries = got.Hop(k);
    ASSERT_EQ(got_entries.size(), want_entries.size());
    for (size_t i = 0; i < want_entries.size(); ++i) {
      ASSERT_EQ(got_entries[i].key, want_entries[i].key) << "entry " << i;
      ASSERT_EQ(Bits(got_entries[i].value), Bits(want_entries[i].value))
          << "entry " << i << " node " << want_entries[i].key;
    }
    EXPECT_EQ(Bits(got.HopSum(k)), Bits(want.residues.hop_sum[k]));
  }
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

std::vector<NamedGraph> TestGraphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"rmat", Rmat(11, 16.0, 5)});
  graphs.push_back({"plc", PowerlawCluster(2000, 4, 0.3, 6)});
  graphs.push_back({"barbell", testing::MakeBarbell(30)});
  return graphs;
}

/// Seeds spread over the id range, including the highest-degree node.
std::vector<NodeId> TestSeeds(const Graph& graph) {
  NodeId hub = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (graph.Degree(v) > graph.Degree(hub)) hub = v;
  }
  return {0, graph.NumNodes() / 3, graph.NumNodes() - 1, hub};
}

TEST(PushReferenceTest, HkPushMatchesHashMapReferenceBitForBit) {
  const HeatKernel kernel(5.0);
  QueryWorkspace ws;  // reused across graphs and seeds on purpose
  for (const NamedGraph& g : TestGraphs()) {
    for (NodeId seed : TestSeeds(g.graph)) {
      for (double r_max : {1e-2, 1e-4, 1e-6}) {
        SCOPED_TRACE(g.name + " seed " + std::to_string(seed) + " r_max " +
                     std::to_string(r_max));
        const MapPush want = MapHkPush(g.graph, kernel, seed, r_max);
        const PushCounters got = HkPushInto(g.graph, kernel, seed, r_max, ws);
        ExpectSamePush(got, ws, want);
      }
    }
  }
}

enum class Exit { kFullDrain, kEarly, kBudget };

struct PlusCase {
  const char* name;
  double delta;
  uint32_t hop_cap;  // 0: kernel.MaxHop(), the push-only setting
  uint64_t push_budget;
  bool early_exit;
  Exit expected;
};

TEST(PushReferenceTest, HkPushPlusMatchesHashMapReferenceOnEveryExit) {
  const HeatKernel kernel(5.0);
  const PlusCase cases[] = {
      {"full drain, cap 6", 1e-4, 6, UINT64_MAX, true, Exit::kFullDrain},
      {"full drain, cap MaxHop", 1e-4, 0, UINT64_MAX, false,
       Exit::kFullDrain},
      {"early exit, cap 6", 5e-2, 6, UINT64_MAX, true, Exit::kEarly},
      {"early exit, cap MaxHop", 1e-3, 0, UINT64_MAX, true, Exit::kEarly},
      {"budget, cap 6", 1e-4, 6, 2000, true, Exit::kBudget},
      {"budget, cap MaxHop", 1e-4, 0, 5000, true, Exit::kBudget},
  };
  QueryWorkspace ws;
  for (const NamedGraph& g : TestGraphs()) {
    for (const PlusCase& c : cases) {
      for (NodeId seed : TestSeeds(g.graph)) {
        SCOPED_TRACE(g.name + ", " + c.name + ", seed " +
                     std::to_string(seed));
        HkPushPlusOptions options;
        options.eps_r = 0.5;
        options.delta = c.delta;
        options.hop_cap = c.hop_cap == 0 ? kernel.MaxHop() : c.hop_cap;
        options.push_budget = c.push_budget;
        options.enable_early_exit = c.early_exit;
        const MapPush want = MapHkPushPlus(g.graph, kernel, seed, options);
        // The case must exercise the exit it is named after.
        switch (c.expected) {
          case Exit::kFullDrain:
            ASSERT_FALSE(want.counters.hit_budget);
            ASSERT_FALSE(want.counters.hit_absolute_target);
            break;
          case Exit::kEarly:
            ASSERT_TRUE(want.counters.hit_absolute_target);
            break;
          case Exit::kBudget:
            ASSERT_TRUE(want.counters.hit_budget);
            break;
        }
        const PushCounters got =
            HkPushPlusInto(g.graph, kernel, seed, options, ws);
        ExpectSamePush(got, ws, want);
      }
    }
  }
}

/// The hash-map hk-relax: Taylor levels in per-level FlatMaps and a FIFO
/// queue of (node, level).
struct MapRelax {
  SparseVector x;
  uint64_t push_operations = 0;
  uint64_t entries_processed = 0;
};

MapRelax MapHkRelax(const Graph& graph, const HkRelaxOptions& options,
                    NodeId seed) {
  const HeatKernel kernel(options.t);
  uint32_t n_trunc = 1;
  while (n_trunc < kernel.MaxHop() &&
         kernel.Psi(n_trunc + 1) > options.eps_a / 2.0) {
    ++n_trunc;
  }
  std::vector<double> psis(n_trunc + 1, 0.0);
  psis[n_trunc] = 1.0;
  for (uint32_t j = n_trunc; j-- > 0;) {
    psis[j] = 1.0 + psis[j + 1] * options.t / static_cast<double>(j + 1);
  }
  const double exp_t = std::exp(options.t);
  const auto threshold = [&](uint32_t degree, uint32_t j) {
    return exp_t * options.eps_a * static_cast<double>(degree) /
           (2.0 * static_cast<double>(n_trunc) * psis[j]);
  };

  MapRelax out;
  std::vector<FlatMap<double>> levels(n_trunc + 1);
  std::vector<std::pair<NodeId, uint32_t>> queue;
  size_t head = 0;
  levels[0][seed] = 1.0;
  if (1.0 >= threshold(std::max(graph.Degree(seed), 1u), 0)) {
    queue.emplace_back(seed, 0u);
  }
  while (head < queue.size()) {
    const auto [v, j] = queue[head++];
    double& rv = levels[j][v];
    const double mass_v = rv;
    if (mass_v <= 0.0) continue;
    rv = 0.0;
    out.x.Add(v, mass_v);
    ++out.entries_processed;
    const uint32_t d = graph.Degree(v);
    if (d == 0) continue;
    out.push_operations += d;
    if (j == n_trunc) continue;
    const double mass = mass_v * options.t / (static_cast<double>(j + 1) * d);
    for (NodeId u : graph.Neighbors(v)) {
      if (j + 1 == n_trunc) {
        out.x.Add(u, mass_v / static_cast<double>(d));
        continue;
      }
      double& ru = levels[j + 1][u];
      const double before = ru;
      ru = before + mass;
      const double th = threshold(graph.Degree(u), j + 1);
      if (before < th && ru >= th) queue.emplace_back(u, j + 1);
    }
  }
  out.x.Scale(std::exp(-options.t));
  return out;
}

TEST(PushReferenceTest, HkRelaxMatchesHashMapReferenceBitForBit) {
  QueryWorkspace ws;
  for (const NamedGraph& g : TestGraphs()) {
    for (double eps_a : {1e-2, 1e-4}) {
      HkRelaxOptions options;
      options.t = 5.0;
      options.eps_a = eps_a;
      HkRelaxEstimator estimator(g.graph, options);
      for (NodeId seed : TestSeeds(g.graph)) {
        SCOPED_TRACE(g.name + " eps_a " + std::to_string(eps_a) + " seed " +
                     std::to_string(seed));
        const MapRelax want = MapHkRelax(g.graph, options, seed);
        EstimatorStats stats;
        testing::ExpectBitIdentical(estimator.EstimateInto(seed, ws, &stats),
                                    want.x);
        EXPECT_EQ(stats.push_operations, want.push_operations);
        EXPECT_EQ(stats.entries_processed, want.entries_processed);
      }
    }
  }
}

}  // namespace
}  // namespace hkpr
