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

/// Why an HK-Push+ drain stopped.
enum class Stop {
  kBound,      // the increase-only bound certified Inequality (11)
  kBudget,     // the push budget ran out
  kExactTest,  // past the cap: the exact test (11) passed
  kEmptyHop,   // past the cap: the hop to drain received no residue
  kLastHop,    // hops 0..last-1 drained: the hop cap, or MaxHop past it
};

struct MapPush {
  SparseVector reserve;
  MapResidues residues{0};
  PushCounters counters;
  Stop stop = Stop::kLastHop;
  /// The hop the drain loop was at when the push stopped; the last hop
  /// when it ran out of hops.
  uint32_t stop_hop = 0;
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

/// The exact left side of Inequality (11): the sum over hops of
/// max_v r_k[v]/d(v) over positive residues.
double MapMaxNormalizedResidueSum(const Graph& graph,
                                  const MapResidues& residues) {
  double total = 0.0;
  for (const FlatMap<double>& hop : residues.hops) {
    double best = 0.0;
    for (const auto& e : hop.entries()) {
      if (e.value <= 0.0) continue;
      const double norm = e.value / graph.Degree(e.key);
      if (norm > best) best = norm;
    }
    total += best;
  }
  return total;
}

/// HK-Push+ as push.h specifies it, including the drain past the hop cap:
/// once hops 0..K-1 have drained uncertified, each further hop k is drained
/// only after the exact test (11) fails on the table so far, and the drain
/// stops on a pass, the budget, an empty hop or MaxHop.
MapPush MapHkPushPlus(const Graph& graph, const HeatKernel& kernel,
                      NodeId seed, const HkPushPlusOptions& options) {
  const uint32_t cap = std::min(options.hop_cap, kernel.MaxHop());
  const uint32_t last_hop =
      options.drain_past_hop_cap ? kernel.MaxHop() : cap;
  MapPush out;
  out.residues = MapResidues(last_hop);
  out.residues.Add(0, seed, 1.0);
  PushCounters& c = out.counters;

  const double eps_a = options.eps_r * options.delta;
  const double threshold = eps_a / static_cast<double>(cap);
  // Increase-only upper bounds on max_v r_k[v]/d(v) per hop. Once hop k has
  // drained, every entry left there is at most threshold*d(v); `drained`
  // sums min(bound, threshold) over the drained hops. While hop k drains,
  // the left side of (11) is at most drained + bound_k + bound_{k+1}: a sum
  // of nonnegative terms, so no cancellation error enters the test.
  std::vector<double> norm_bound(static_cast<size_t>(last_hop) + 1, 0.0);
  const uint32_t seed_degree = graph.Degree(seed);
  norm_bound[0] = seed_degree > 0 ? 1.0 / seed_degree : 0.0;
  double drained = 0.0;

  for (uint32_t k = 0; k < last_hop; ++k) {
    out.stop_hop = k;
    if (k >= cap) {
      if (out.residues.hops[k].empty()) {
        out.stop = Stop::kEmptyHop;
        return out;
      }
      if (MapMaxNormalizedResidueSum(graph, out.residues) <= eps_a) {
        c.passed_exact_test = true;
        out.stop = Stop::kExactTest;
        return out;
      }
    }
    const auto& entries = out.residues.hops[k].entries();
    const double reserve_frac = kernel.ReserveFraction(k);
    for (size_t i = 0; i < entries.size(); ++i) {
      const NodeId v = entries[i].key;
      const double r = entries[i].value;
      const uint32_t d = graph.Degree(v);
      if (d == 0 || r <= threshold * d) continue;
      if (c.push_operations >= options.push_budget) {
        c.hit_budget = true;
        out.stop = Stop::kBudget;
        return out;
      }
      out.reserve.Add(v, reserve_frac * r);
      const double share = (1.0 - reserve_frac) * r / d;
      for (NodeId u : graph.Neighbors(v)) {
        const double new_r = out.residues.Add(k + 1, u, share);
        const double norm = new_r / graph.Degree(u);
        if (norm > norm_bound[k + 1]) norm_bound[k + 1] = norm;
      }
      out.residues.Zero(k, v);
      c.push_operations += d;
      ++c.entries_processed;
      if (options.enable_early_exit &&
          drained + norm_bound[k] + norm_bound[k + 1] <= eps_a) {
        c.hit_absolute_target = true;
        out.stop = Stop::kBound;
        return out;
      }
    }
    drained += std::min(norm_bound[k], threshold);
    if (options.enable_early_exit && drained + norm_bound[k + 1] <= eps_a) {
      c.hit_absolute_target = true;
      out.stop = Stop::kBound;
      return out;
    }
  }
  out.stop_hop = last_hop;
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
  EXPECT_EQ(got_counters.passed_exact_test, want.counters.passed_exact_test);
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

/// A drain past the hop cap, as the server's TEA+ runs it.
struct DrainCase {
  const char* name;
  double delta;
  uint32_t hop_cap;
  /// Sets the push budget halfway between the hard cap's push operations
  /// and the unbudgeted drain's, so that it runs out past the cap.
  bool budget_past_cap;
  Stop expected;
};

TEST(PushReferenceTest, HkPushPlusDrainPastHopCapMatchesHashMapReference) {
  const DrainCase cases[] = {
      {"exact test passes past the cap", 1e-5, 6, false, Stop::kExactTest},
      {"a hop past the cap receives nothing", 1e-4, 2, false,
       Stop::kEmptyHop},
      {"drains to MaxHop", 1e-20, 2, false, Stop::kLastHop},
      {"budget runs out past the cap", 1e-5, 6, true, Stop::kBudget},
  };
  QueryWorkspace ws;
  for (double t : {5.0, 20.0}) {
    const HeatKernel kernel(t);
    for (const NamedGraph& g : TestGraphs()) {
      for (const DrainCase& c : cases) {
        SCOPED_TRACE(g.name + ", t " + std::to_string(t) + ", " + c.name);
        size_t named_stops = 0;
        for (NodeId seed : TestSeeds(g.graph)) {
          SCOPED_TRACE("seed " + std::to_string(seed));
          HkPushPlusOptions options;
          options.eps_r = 0.5;
          options.delta = c.delta;
          options.hop_cap = c.hop_cap;
          options.push_budget = UINT64_MAX;
          options.drain_past_hop_cap = true;
          if (c.budget_past_cap) {
            HkPushPlusOptions hard = options;
            hard.drain_past_hop_cap = false;
            const uint64_t hard_ops =
                MapHkPushPlus(g.graph, kernel, seed, hard)
                    .counters.push_operations;
            const uint64_t drain_ops =
                MapHkPushPlus(g.graph, kernel, seed, options)
                    .counters.push_operations;
            options.push_budget = hard_ops + (drain_ops - hard_ops) / 2;
          }
          const MapPush want = MapHkPushPlus(g.graph, kernel, seed, options);
          if (want.stop == c.expected && want.stop_hop > c.hop_cap) {
            ++named_stops;
          }
          const PushCounters got =
              HkPushPlusInto(g.graph, kernel, seed, options, ws);
          ExpectSamePush(got, ws, want);
        }
        // The case must exercise the stop it is named after, past the cap.
        EXPECT_GT(named_stops, 0u);
      }
    }
  }
}

TEST(PushReferenceTest, HkPushPlusSeedPushCertifiesAtHopZero) {
  // With eps_a = 2/d(s), the bound certifies right after the seed's own
  // push: 1/d(s) for hop 0 plus at most 1/d(s) for hop 1. Hop 0 holds the
  // seed alone, and the bound only grows while a hop drains, so this is
  // the one push after which an in-loop test of the bound could pass.
  QueryWorkspace ws;
  for (double t : {5.0, 20.0}) {
    const HeatKernel kernel(t);
    for (const NamedGraph& g : TestGraphs()) {
      const NodeId hub = TestSeeds(g.graph).back();
      for (bool drain : {false, true}) {
        SCOPED_TRACE(g.name + ", t " + std::to_string(t) +
                     (drain ? ", drain" : ", hard cap"));
        HkPushPlusOptions options;
        options.eps_r = 0.5;
        options.delta = 4.0 / g.graph.Degree(hub);
        options.hop_cap = 6;
        options.push_budget = UINT64_MAX;
        options.drain_past_hop_cap = drain;
        const MapPush want = MapHkPushPlus(g.graph, kernel, hub, options);
        ASSERT_EQ(want.stop, Stop::kBound);
        ASSERT_EQ(want.counters.entries_processed, 1u);
        const PushCounters got =
            HkPushPlusInto(g.graph, kernel, hub, options, ws);
        ExpectSamePush(got, ws, want);
      }
    }
  }
}

TEST(PushReferenceTest, HkPushPlusBoundCertifiesOnlyWhatTheExactTestPasses) {
  // At eps_a = 5e-21 the drain runs to the last hops, where the bound's
  // terms have fallen from 1/d(s) to below 1e-17. A bound kept as a running
  // total that adds each increase and subtracts each clamp cancels to
  // within its own rounding error there (it read -2.25e-18 on the R-MAT
  // seed 0 at t = 5 while its terms summed to 1.17e-18) and certified
  // tables that fail (11). Whatever the bound certifies, at that eps_a or
  // at an ordinary one, the exact test must pass. One more graph holds an
  // isolated node, seed 2: sealing skips a degree-0 entry, so a unit
  // residue left there would be certified by a bound of 0.
  std::vector<NamedGraph> graphs = TestGraphs();
  GraphBuilder with_isolated(3);
  with_isolated.AddEdge(0, 1);
  graphs.push_back({"isolated", with_isolated.Build()});
  QueryWorkspace ws;
  size_t certified = 0;
  for (double t : {5.0, 20.0}) {
    const HeatKernel kernel(t);
    for (const NamedGraph& g : graphs) {
      for (double delta : {1e-2, 1e-20}) {
        for (NodeId seed : TestSeeds(g.graph)) {
          SCOPED_TRACE(::testing::Message()
                       << g.name << ", t " << t << ", delta " << delta
                       << ", seed " << seed);
          HkPushPlusOptions options;
          options.eps_r = 0.5;
          options.delta = delta;
          options.hop_cap = 2;
          options.push_budget = UINT64_MAX;
          options.drain_past_hop_cap = true;
          const PushCounters got =
              HkPushPlusInto(g.graph, kernel, seed, options, ws);
          if (!got.hit_absolute_target) continue;
          ++certified;
          EXPECT_LE(ws.residues.MaxNormalizedResidueSum(g.graph),
                    options.eps_r * options.delta);
        }
      }
    }
  }
  EXPECT_GT(certified, 0u);
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
