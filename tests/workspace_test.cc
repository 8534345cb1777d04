// Tests for the query-engine layer: workspace reuse and the zero-allocation
// steady-state guarantee.
//
// This translation unit overrides the global operator new/delete to feed
// AllocCounters (common/mem_tracker.h). The override applies to the whole
// test binary but only counts; behavior is unchanged.

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "baselines/hk_relax.h"
#include "common/mem_tracker.h"
#include "graph/generators.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/push.h"
#include "hkpr/push_estimator.h"
#include "hkpr/tea.h"
#include "hkpr/tea_plus.h"
#include "hkpr/workspace.h"
#include "test_util.h"

// ---- counting operator new/delete (whole-binary, count-only) --------------

void* operator new(std::size_t size) {
  hkpr::AllocCounters::RecordAllocation();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  hkpr::AllocCounters::RecordAllocation();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

// The nothrow forms must come from the same allocator as the replaced
// deletes: the library's own nothrow new (e.g. std::stable_sort's temporary
// buffer) would otherwise be freed by the free() below, which a sanitizer
// reports as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  hkpr::AllocCounters::RecordAllocation();
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept {
  hkpr::AllocCounters::RecordDeallocation();
  std::free(p);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

void operator delete(void* p, std::align_val_t) noexcept {
  hkpr::AllocCounters::RecordDeallocation();
  std::free(p);
}

void operator delete[](void* p, std::align_val_t a) noexcept {
  ::operator delete(p, a);
}

void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  ::operator delete(p, a);
}

void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  ::operator delete(p, a);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

// ---------------------------------------------------------------------------

namespace hkpr {
namespace {

/// Allocations performed by `fn()`.
template <typename Fn>
uint64_t AllocationsDuring(Fn&& fn) {
  const uint64_t before = AllocCounters::Allocations();
  fn();
  return AllocCounters::Allocations() - before;
}

ApproxParams TestParams(double delta) {
  ApproxParams p;
  p.t = 5.0;
  p.eps_r = 0.5;
  p.delta = delta;
  p.p_f = 1e-4;
  return p;
}

void ExpectSameVector(const SparseVector& a, const SparseVector& b) {
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_DOUBLE_EQ(a.degree_offset(), b.degree_offset());
  for (const auto& e : a.entries()) EXPECT_DOUBLE_EQ(b.Get(e.key), e.value);
}

TEST(WorkspaceTest, TeaPlusReusedWorkspaceMatchesFreshEstimators) {
  Graph g = PowerlawCluster(400, 3, 0.3, 1);
  const ApproxParams params = TestParams(1e-5);

  TeaPlusEstimator fresh_a(g, params, 7);
  const SparseVector expected_a = fresh_a.Estimate(3);
  TeaPlusEstimator fresh_b(g, params, 7);
  const SparseVector expected_b = fresh_b.Estimate(11);

  // Two sequential queries on one estimator + one workspace, re-seeded so
  // each query replays the fresh estimator's randomness.
  TeaPlusEstimator reused(g, params, 7);
  QueryWorkspace ws;
  ExpectSameVector(reused.EstimateInto(3, ws), expected_a);
  reused.Reseed(7);
  ExpectSameVector(reused.EstimateInto(11, ws), expected_b);
}

TEST(WorkspaceTest, TeaReusedWorkspaceMatchesFreshEstimators) {
  Graph g = PowerlawCluster(300, 3, 0.3, 2);
  const ApproxParams params = TestParams(1e-4);

  TeaEstimator fresh_a(g, params, 5);
  const SparseVector expected_a = fresh_a.Estimate(9);
  TeaEstimator fresh_b(g, params, 5);
  const SparseVector expected_b = fresh_b.Estimate(2);

  TeaEstimator reused(g, params, 5);
  QueryWorkspace ws;
  ExpectSameVector(reused.EstimateInto(9, ws), expected_a);
  reused.Reseed(5);
  ExpectSameVector(reused.EstimateInto(2, ws), expected_b);
}

TEST(WorkspaceTest, MonteCarloReusedWorkspaceMatchesFreshEstimators) {
  // The workspace-aware Monte-Carlo port: two sequential queries on one
  // estimator + one workspace, re-seeded so each query replays a fresh
  // estimator's randomness bit for bit.
  Graph g = PowerlawCluster(300, 3, 0.3, 2);
  const ApproxParams params = TestParams(1e-3);

  MonteCarloEstimator fresh_a(g, params, 5);
  const SparseVector expected_a = fresh_a.Estimate(9);
  MonteCarloEstimator fresh_b(g, params, 5);
  const SparseVector expected_b = fresh_b.Estimate(2);

  MonteCarloEstimator reused(g, params, 5);
  QueryWorkspace ws;
  ExpectSameVector(reused.EstimateInto(9, ws), expected_a);
  reused.Reseed(5);
  ExpectSameVector(reused.EstimateInto(2, ws), expected_b);
  // Without a re-seed, the next query draws the next epoch's walks.
  EXPECT_TRUE(
      testing::AnyEntryDiffers(reused.EstimateInto(2, ws), expected_b));
}

TEST(WorkspaceTest, MonteCarloSteadyStateIsAllocationFree) {
  Graph g = testing::MakeComplete(16);
  const ApproxParams params = TestParams(1e-3);
  MonteCarloEstimator estimator(g, params, 31);
  QueryWorkspace ws;

  for (int i = 0; i < 3; ++i) estimator.EstimateInto(2, ws);
  EstimatorStats stats;
  const uint64_t allocs =
      AllocationsDuring([&] { estimator.EstimateInto(2, ws, &stats); });
  EXPECT_GT(stats.num_walks, 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST(WorkspaceTest, PushOnlyEstimateIntoIsBitIdenticalToEstimate) {
  // Push-only is deterministic, so the workspace port must agree with the
  // by-value path exactly — including on a reused (warmed) workspace.
  Graph g = PowerlawCluster(300, 3, 0.3, 4);
  ApproxParams params = TestParams(1e-3);
  PushOnlyEstimator estimator(g, params);
  QueryWorkspace ws;
  for (NodeId seed : {NodeId{9}, NodeId{2}, NodeId{9}}) {
    EstimatorStats into_stats;
    const SparseVector& got = estimator.EstimateInto(seed, ws, &into_stats);
    EstimatorStats stats;
    const SparseVector expected = estimator.Estimate(seed, &stats);
    ExpectSameVector(got, expected);
    EXPECT_EQ(into_stats.push_operations, stats.push_operations);
    EXPECT_EQ(into_stats.early_exit, stats.early_exit);
  }
}

TEST(WorkspaceTest, PushOnlySteadyStateIsAllocationFree) {
  Graph g = PowerlawCluster(400, 3, 0.3, 6);
  ApproxParams params = TestParams(1e-3);
  PushOnlyEstimator estimator(g, params);
  QueryWorkspace ws;

  for (int i = 0; i < 3; ++i) estimator.EstimateInto(21, ws);
  EstimatorStats stats;
  const uint64_t allocs =
      AllocationsDuring([&] { estimator.EstimateInto(21, ws, &stats); });
  EXPECT_GT(stats.push_operations, 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST(WorkspaceTest, SequentialTeaPlusSteadyStateIsAllocationFree) {
  Graph g = PowerlawCluster(400, 3, 0.3, 6);
  const ApproxParams params = TestParams(1e-5);
  TeaPlusOptions options;
  options.c = 1.0;  // force the walk phase (the allocation-heavy path)
  TeaPlusEstimator estimator(g, params, 13, options);
  QueryWorkspace ws;

  // Warm-up: identical queries, so the second pass sees every buffer at its
  // steady-state capacity.
  for (int i = 0; i < 3; ++i) {
    estimator.Reseed(13);
    estimator.EstimateInto(21, ws);
  }
  EstimatorStats stats;
  const uint64_t allocs = AllocationsDuring([&] {
    estimator.Reseed(13);
    estimator.EstimateInto(21, ws, &stats);
  });
  EXPECT_GT(stats.num_walks, 0u) << "test must exercise the walk phase";
  EXPECT_EQ(allocs, 0u);
}

TEST(WorkspaceTest, HkRelaxSteadyStateIsAllocationFree) {
  // The workspace-aware HK-Relax port must honor the same reuse contract as
  // the TEA+ estimators: once the residual levels, result vector and queue
  // have warmed up, repeating a query touches the heap zero times.
  Graph g = PowerlawCluster(400, 3, 0.3, 6);
  HkRelaxOptions options;
  options.t = 5.0;
  options.eps_a = 1e-4;
  HkRelaxEstimator estimator(g, options);
  QueryWorkspace ws;

  for (int i = 0; i < 3; ++i) estimator.EstimateInto(21, ws);
  EstimatorStats stats;
  const uint64_t allocs =
      AllocationsDuring([&] { estimator.EstimateInto(21, ws, &stats); });
  EXPECT_GT(stats.push_operations, 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST(WorkspaceTest, ReuseAcrossGraphSizesAndExitPathsMatchesFreshWorkspaces) {
  // One workspace serves tea+, tea, push and hk-relax queries on a ~2k-node
  // graph, then on a graph with several times more nodes (the push frontier
  // must grow), then on the small graph again (the oversized frontier must
  // hold no stale residue). Every answer must equal a fresh workspace's bit
  // for bit. A budget-exited push is followed by a full drain on the same
  // workspace.
  const Graph small = PowerlawCluster(2000, 4, 0.3, 21);
  const Graph large = PowerlawCluster(9000, 4, 0.3, 22);
  const ApproxParams params = TestParams(1e-4);
  QueryWorkspace shared;
  int walked = 0;
  int exited_early = 0;

  const Graph* const sequence[] = {&small, &large, &small};
  for (size_t gi = 0; gi < 3; ++gi) {
    const Graph& g = *sequence[gi];
    SCOPED_TRACE("graph " + std::to_string(gi) + " (" +
                 std::to_string(g.NumNodes()) + " nodes)");
    TeaPlusOptions walking;
    walking.c = 1.0;  // forces the walk phase on most seeds
    HkRelaxOptions relax;
    relax.t = params.t;
    relax.eps_a = 1e-4;
    std::vector<std::pair<std::string, std::unique_ptr<WorkspaceEstimator>>>
        estimators;
    estimators.emplace_back("tea+",
                            std::make_unique<TeaPlusEstimator>(g, params, 7));
    estimators.emplace_back(
        "tea+ c=1",
        std::make_unique<TeaPlusEstimator>(g, params, 7, walking));
    estimators.emplace_back("tea",
                            std::make_unique<TeaEstimator>(g, params, 7));
    estimators.emplace_back("push",
                            std::make_unique<PushOnlyEstimator>(g, params));
    estimators.emplace_back("hk-relax",
                            std::make_unique<HkRelaxEstimator>(g, relax));

    for (NodeId seed : {NodeId{3}, NodeId{g.NumNodes() - 1}}) {
      for (auto& [name, estimator] : estimators) {
        SCOPED_TRACE(name + " seed " + std::to_string(seed));
        QueryWorkspace fresh;
        EstimatorStats want_stats;
        estimator->Reseed(7);
        const SparseVector& want =
            estimator->EstimateInto(seed, fresh, &want_stats);
        EstimatorStats got_stats;
        estimator->Reseed(7);
        testing::ExpectBitIdentical(
            estimator->EstimateInto(seed, shared, &got_stats), want);
        EXPECT_EQ(got_stats.push_operations, want_stats.push_operations);
        EXPECT_EQ(got_stats.num_walks, want_stats.num_walks);
        EXPECT_EQ(got_stats.walk_steps, want_stats.walk_steps);
        EXPECT_EQ(got_stats.early_exit, want_stats.early_exit);
        walked += want_stats.num_walks > 0;
        exited_early += want_stats.early_exit;
      }

      // A budget exit leaves residue spread over unfinished hops; the full
      // drain that follows on the same workspace must not see any of it.
      HeatKernel kernel(params.t);
      HkPushPlusOptions budgeted;
      budgeted.delta = 1e-6;
      budgeted.hop_cap = 8;
      budgeted.push_budget = 500;
      HkPushPlusOptions draining = budgeted;
      draining.push_budget = UINT64_MAX;
      draining.enable_early_exit = false;
      for (const HkPushPlusOptions& options : {budgeted, draining}) {
        SCOPED_TRACE("raw push, budget " +
                     std::to_string(options.push_budget));
        QueryWorkspace fresh;
        const PushCounters want =
            HkPushPlusInto(g, kernel, seed, options, fresh);
        const PushCounters got =
            HkPushPlusInto(g, kernel, seed, options, shared);
        EXPECT_EQ(got.hit_budget, options.push_budget == 500);
        EXPECT_EQ(got.hit_budget, want.hit_budget);
        EXPECT_EQ(got.push_operations, want.push_operations);
        testing::ExpectBitIdentical(shared.result, fresh.result);
        ASSERT_EQ(shared.residues.max_hop(), fresh.residues.max_hop());
        for (uint32_t k = 0; k <= fresh.residues.max_hop(); ++k) {
          const auto& got_hop = shared.residues.Hop(k);
          const auto& want_hop = fresh.residues.Hop(k);
          ASSERT_EQ(got_hop.size(), want_hop.size()) << "hop " << k;
          for (size_t i = 0; i < want_hop.size(); ++i) {
            ASSERT_EQ(got_hop[i].key, want_hop[i].key);
            ASSERT_EQ(std::bit_cast<uint64_t>(got_hop[i].value),
                      std::bit_cast<uint64_t>(want_hop[i].value));
          }
          EXPECT_EQ(std::bit_cast<uint64_t>(shared.residues.HopSum(k)),
                    std::bit_cast<uint64_t>(fresh.residues.HopSum(k)));
        }
      }
    }
    // The frontier is sized to the largest graph served so far.
    EXPECT_GE(shared.MemoryBytes(), 12 * static_cast<size_t>(
                                             gi == 0 ? small.NumNodes()
                                                     : large.NumNodes()));
  }
  // Both TEA+ paths ran: the walk phase and the early exit.
  EXPECT_GT(walked, 0);
  EXPECT_GT(exited_early, 0);
}

}  // namespace
}  // namespace hkpr
