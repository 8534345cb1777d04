// Shared fixtures and reference implementations for the test suite.

#ifndef HKPR_TESTS_TEST_UTIL_H_
#define HKPR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sparse_vector.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "hkpr/backend.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/queries.h"
#include "hkpr/residue.h"

namespace hkpr::testing {

/// Path graph 0-1-2-...-(n-1).
inline Graph MakePath(uint32_t n) {
  GraphBuilder b(n);
  for (uint32_t v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  return b.Build();
}

/// Cycle graph.
inline Graph MakeCycle(uint32_t n) {
  GraphBuilder b(n);
  for (uint32_t v = 0; v < n; ++v) b.AddEdge(v, (v + 1) % n);
  return b.Build();
}

/// Star: node 0 connected to 1..n-1.
inline Graph MakeStar(uint32_t n) {
  GraphBuilder b(n);
  for (uint32_t v = 1; v < n; ++v) b.AddEdge(0, v);
  return b.Build();
}

/// Complete graph K_n.
inline Graph MakeComplete(uint32_t n) {
  GraphBuilder b(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  return b.Build();
}

/// Two cliques of size k bridged by a single edge — the canonical
/// low-conductance two-cluster graph. Nodes 0..k-1 form clique A,
/// k..2k-1 clique B; the bridge is (k-1, k).
inline Graph MakeBarbell(uint32_t k) {
  GraphBuilder b(2 * k);
  for (uint32_t u = 0; u < k; ++u) {
    for (uint32_t v = u + 1; v < k; ++v) {
      b.AddEdge(u, v);
      b.AddEdge(k + u, k + v);
    }
  }
  b.AddEdge(k - 1, k);
  return b.Build();
}

/// The small example graph G' of the paper's Figure 1: seed s=0 with
/// neighbors v1=1, v2=2; v1-v2 edge; v3..v7 = 3..7.
/// Edges: s-v1, s-v2, v1-v2, v1-v3, v2-v3, ... reconstructed to give
/// d(s)=2, d(v1)=3, d(v2)=6, d(v3)=1..  (structure used only for smoke
/// tests; exact degrees of the figure are not load-bearing).
inline Graph MakePaperFigure1() {
  GraphBuilder b(8);
  b.AddEdge(0, 1);  // s - v1
  b.AddEdge(0, 2);  // s - v2
  b.AddEdge(1, 2);  // v1 - v2
  b.AddEdge(1, 3);  // v1 - v3
  b.AddEdge(2, 4);
  b.AddEdge(2, 5);
  b.AddEdge(2, 6);
  b.AddEdge(2, 7);
  return b.Build();
}

/// Exact conditional stopping distribution h_u^(k) (Equation 5), dense:
/// h_u^(k)[v] = sum_l eta(k+l)/psi(k) * P^l[u, v].
inline std::vector<double> ExactH(const Graph& g, const HeatKernel& kernel,
                                  NodeId u, uint32_t k) {
  const uint32_t n = g.NumNodes();
  std::vector<double> x(n, 0.0), next(n, 0.0), acc(n, 0.0);
  x[u] = 1.0;
  const double psi_k = kernel.Psi(k);
  for (uint32_t l = 0; k + l <= kernel.MaxHop(); ++l) {
    const double w = kernel.Eta(k + l) / psi_k;
    for (uint32_t v = 0; v < n; ++v) acc[v] += w * x[v];
    std::fill(next.begin(), next.end(), 0.0);
    for (uint32_t a = 0; a < n; ++a) {
      if (x[a] == 0.0) continue;
      if (g.Degree(a) == 0) {
        next[a] += x[a];
        continue;
      }
      const double share = x[a] / g.Degree(a);
      for (NodeId b : g.Neighbors(a)) next[b] += share;
    }
    x.swap(next);
  }
  return acc;
}

/// Same entries in the same order with the same value bits, and the same
/// degree offset.
inline void ExpectBitIdentical(const SparseVector& got,
                               const SparseVector& want) {
  ASSERT_EQ(got.nnz(), want.nnz());
  EXPECT_EQ(std::bit_cast<uint64_t>(got.degree_offset()),
            std::bit_cast<uint64_t>(want.degree_offset()));
  for (size_t i = 0; i < want.entries().size(); ++i) {
    ASSERT_EQ(got.entries()[i].key, want.entries()[i].key) << "entry " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(got.entries()[i].value),
              std::bit_cast<uint64_t>(want.entries()[i].value))
        << "entry " << i << " node " << want.entries()[i].key;
  }
}

/// True when `a` and `b` differ in some entry: a second draw of the same
/// randomized query must not repeat the first.
inline bool AnyEntryDiffers(const SparseVector& a, const SparseVector& b) {
  if (a.nnz() != b.nnz()) return true;
  for (const auto& e : a.entries()) {
    if (b.Get(e.key) != e.value) return true;
  }
  return false;
}

/// The sequential reference of the serving paths: one QueryExecutor
/// answering seeds[i] as query index first_index + i, in submission order.
/// A service with any number of workers, its cache off, must answer the
/// same bits.
inline std::vector<SparseVector> AnswerInOrder(
    const Graph& graph, const ApproxParams& params, uint64_t engine_seed,
    const std::vector<NodeId>& seeds, const BackendSpec& spec = {},
    uint64_t first_index = 0) {
  QueryExecutor executor(graph, params, engine_seed, spec);
  std::vector<SparseVector> answers;
  answers.reserve(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    answers.push_back(executor.Answer(seeds[i], first_index + i));
  }
  return answers;
}

/// The walks each query of AnswerInOrder takes: the registry estimator
/// re-seeded per query index, as QueryExecutor re-seeds it.
inline std::vector<uint64_t> ReferenceWalks(const Graph& graph,
                                            const ApproxParams& params,
                                            uint64_t engine_seed,
                                            const std::vector<NodeId>& seeds,
                                            const BackendSpec& spec = {},
                                            uint64_t first_index = 0) {
  const std::unique_ptr<WorkspaceEstimator> estimator =
      EstimatorRegistry::Global().Create(spec.name, graph, params, engine_seed,
                                         spec.context);
  QueryWorkspace ws;
  std::vector<uint64_t> walks;
  for (size_t i = 0; i < seeds.size(); ++i) {
    estimator->Reseed(QueryRngSeed(engine_seed, first_index + i));
    EstimatorStats stats;
    estimator->EstimateInto(seeds[i], ws, &stats);
    walks.push_back(stats.num_walks);
  }
  return walks;
}

/// True when every query of AnswerInOrder walks, so that each one's
/// answer depends on its query index.
inline bool EveryQueryWalks(const std::vector<uint64_t>& walks) {
  for (uint64_t w : walks) {
    if (w == 0) return false;
  }
  return true;
}

/// A test backend, "seed-latch", that answers the seed's indicator
/// vector; while the latch is held, its answer for kLatchedSeed waits until
/// the test releases it. The latch is process-wide because registered
/// backends are.
inline constexpr NodeId kLatchedSeed = 0;

struct SeedLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool entered = false;  // a worker is waiting inside EstimateInto

  void Hold() {
    std::lock_guard<std::mutex> lock(mu);
    held = true;
    entered = false;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      held = false;
    }
    cv.notify_all();
  }
  /// Waits up to 30 s for a worker to enter the latched query.
  bool AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(30),
                       [&] { return entered; });
  }
};

inline SeedLatch& TheSeedLatch() {
  static SeedLatch latch;
  return latch;
}

class LatchedEstimator : public WorkspaceEstimator {
 public:
  const SparseVector& EstimateInto(NodeId seed, QueryWorkspace& ws,
                                   EstimatorStats* stats) override {
    if (stats != nullptr) stats->Reset();
    if (seed == kLatchedSeed) {
      SeedLatch& latch = TheSeedLatch();
      std::unique_lock<std::mutex> lock(latch.mu);
      if (latch.held) {
        latch.entered = true;
        latch.cv.notify_all();
        latch.cv.wait(lock, [&] { return !latch.held; });
      }
    }
    ws.result.Clear();
    ws.result.Add(seed, 1.0);
    return ws.result;
  }
  void Reseed(uint64_t /*seed*/) override {}
  std::string_view name() const override { return "seed-latch"; }
};

inline void RegisterLatchedBackend() {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  if (registry.Contains("seed-latch")) return;
  BackendInfo info;
  info.name = "seed-latch";
  info.algorithm = "indicator vector, held on a latch (test backend)";
  info.factory = [](const Graph&, const ApproxParams&, uint64_t,
                    const BackendContext&) {
    return std::unique_ptr<WorkspaceEstimator>(new LatchedEstimator());
  };
  registry.Register(std::move(info));
}

/// r_k[v] of a sealed residue table (0 when hop k has no entry for v).
/// A linear scan of the hop's entries, for assertions only.
inline double ResidueAt(const ResidueTable& table, uint32_t k, NodeId v) {
  for (const ResidueTable::Entry& e : table.Hop(k)) {
    if (e.key == v) return e.value;
  }
  return 0.0;
}

}  // namespace hkpr::testing

#endif  // HKPR_TESTS_TEST_UTIL_H_
