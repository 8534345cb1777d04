// Tests for the multi-graph GraphStore: versioned publish/get round trips,
// snapshot ownership across Remove(), listing, and the hot-swap stress
// test (readers resolving snapshots while a writer republishes in a loop —
// run under TSan in CI; torn reads or use-after-free die here).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "service/graph_store.h"
#include "test_util.h"

namespace hkpr {
namespace {

TEST(GraphStoreTest, PublishGetRoundTrip) {
  GraphStore store;
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_FALSE(store.Get("g"));

  const uint64_t v1 = store.Publish("g", testing::MakeComplete(8));
  EXPECT_GE(v1, 1u);
  EXPECT_TRUE(store.Contains("g"));
  EXPECT_EQ(store.Size(), 1u);

  const GraphSnapshot snapshot = store.Get("g");
  ASSERT_TRUE(snapshot);
  EXPECT_EQ(snapshot.version, v1);
  EXPECT_EQ(snapshot.graph->NumNodes(), 8u);
  EXPECT_EQ(snapshot.graph->NumEdges(), 28u);
}

TEST(GraphStoreTest, VersionsAreStoreWideMonotone) {
  GraphStore store;
  const uint64_t v1 = store.Publish("a", testing::MakePath(4));
  const uint64_t v2 = store.Publish("b", testing::MakePath(5));
  const uint64_t v3 = store.Publish("a", testing::MakePath(6));
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
  EXPECT_EQ(store.latest_version(), v3);

  // The republished "a" serves the new snapshot; "b" is untouched.
  EXPECT_EQ(store.Get("a").version, v3);
  EXPECT_EQ(store.Get("a").graph->NumNodes(), 6u);
  EXPECT_EQ(store.Get("b").version, v2);
}

TEST(GraphStoreTest, PublishReplacesButOldSnapshotsSurvive) {
  GraphStore store;
  store.Publish("g", testing::MakeCycle(10));
  const GraphSnapshot old_snapshot = store.Get("g");

  store.Publish("g", testing::MakeCycle(20));
  const GraphSnapshot new_snapshot = store.Get("g");

  // The old snapshot still reads the old graph, bit for bit.
  EXPECT_EQ(old_snapshot.graph->NumNodes(), 10u);
  EXPECT_EQ(old_snapshot.graph->Degree(0), 2u);
  EXPECT_EQ(new_snapshot.graph->NumNodes(), 20u);
  EXPECT_LT(old_snapshot.version, new_snapshot.version);
}

TEST(GraphStoreTest, RemoveDropsEntryButNotOutstandingSnapshots) {
  GraphStore store;
  store.Publish("g", testing::MakeStar(12));
  const GraphSnapshot snapshot = store.Get("g");

  EXPECT_TRUE(store.Remove("g"));
  EXPECT_FALSE(store.Contains("g"));
  EXPECT_FALSE(store.Get("g"));
  EXPECT_FALSE(store.Remove("g"));  // second remove: unknown

  // The held snapshot keeps the graph alive and readable.
  EXPECT_EQ(snapshot.graph->NumNodes(), 12u);
  EXPECT_EQ(snapshot.graph->Degree(0), 11u);
  EXPECT_EQ(snapshot.graph->Neighbors(1).size(), 1u);
}

TEST(GraphStoreTest, ListReportsNameVersionAndSize) {
  GraphStore store;
  store.Publish("beta", testing::MakeComplete(4));
  const uint64_t va = store.Publish("alpha", testing::MakePath(3));

  const std::vector<GraphInfo> infos = store.List();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "alpha");  // sorted by name
  EXPECT_EQ(infos[0].version, va);
  EXPECT_EQ(infos[0].nodes, 3u);
  EXPECT_EQ(infos[0].edges, 2u);
  EXPECT_EQ(infos[1].name, "beta");
  EXPECT_EQ(infos[1].edges, 6u);

  EXPECT_EQ(store.Names(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(GraphStoreTest, BorrowedSnapshotWrapsCallerOwnedGraph) {
  Graph g = testing::MakeComplete(5);
  const GraphSnapshot snapshot = GraphSnapshot::Borrowed(g);
  ASSERT_TRUE(snapshot);
  EXPECT_EQ(snapshot.version, 0u);
  EXPECT_EQ(snapshot.graph.get(), &g);
}

// The hot-swap stress test: reader threads resolve snapshots and read the
// graph while one writer republishes in a loop. Every observed snapshot
// must pair its graph with its version (node count encodes the publish
// index) and be internally consistent — a torn swap or a freed graph
// fails the assertions or trips TSan/ASan.
TEST(GraphStoreStressTest, ReadersSeeConsistentSnapshotsDuringHotSwap) {
  constexpr uint32_t kBaseNodes = 64;
  constexpr uint32_t kPublishes = 24;
  constexpr uint32_t kReaders = 4;

  GraphStore store;
  const uint64_t v_first = store.Publish("g", testing::MakeCycle(kBaseNodes));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t local_reads = 0;
      uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire) || local_reads < 50) {
        const GraphSnapshot snapshot = store.Get("g");
        ASSERT_TRUE(snapshot);
        // Versions only move forward, and only through published values:
        // this single-writer test publishes k = 0..kPublishes, so the
        // snapshot's node count must encode exactly version - v_first.
        ASSERT_GE(snapshot.version, v_first);
        ASSERT_LE(snapshot.version, v_first + kPublishes);
        ASSERT_GE(snapshot.version, last_version) << "version went backwards";
        last_version = snapshot.version;
        const uint32_t k = static_cast<uint32_t>(snapshot.version - v_first);
        ASSERT_EQ(snapshot.graph->NumNodes(), kBaseNodes + k)
            << "graph/version pair torn";
        // Structural consistency of the cycle: every node has degree 2 and
        // the CSR arrays agree with each other.
        ASSERT_EQ(snapshot.graph->NumEdges(), kBaseNodes + k);
        ASSERT_EQ(snapshot.graph->Degree(k % kBaseNodes), 2u);
        ASSERT_EQ(snapshot.graph->offsets().back(),
                  snapshot.graph->adjacency().size());
        ++local_reads;
      }
      reads.fetch_add(local_reads, std::memory_order_relaxed);
    });
  }

  for (uint32_t k = 1; k <= kPublishes; ++k) {
    const uint64_t v = store.Publish("g", testing::MakeCycle(kBaseNodes + k));
    ASSERT_EQ(v, v_first + k);  // single writer: consecutive versions
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GE(reads.load(), kReaders * 50u);
  EXPECT_EQ(store.Get("g").version, v_first + kPublishes);
  EXPECT_EQ(store.Get("g").graph->NumNodes(), kBaseNodes + kPublishes);
}

// Concurrent publishers to one name: the slot must converge to the highest
// version with no torn graph/version pairs (Publish only installs a
// version newer than the one it finds).
TEST(GraphStoreStressTest, RacingPublishersConvergeToNewestVersion) {
  constexpr uint32_t kWriters = 4;
  constexpr uint32_t kRounds = 16;

  GraphStore store;
  std::vector<std::thread> writers;
  for (uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store] {
      for (uint32_t k = 0; k < kRounds; ++k) {
        store.Publish("g", testing::MakeStar(8));
      }
    });
  }
  for (std::thread& t : writers) t.join();

  const GraphSnapshot snapshot = store.Get("g");
  ASSERT_TRUE(snapshot);
  EXPECT_EQ(snapshot.version, store.latest_version());
  EXPECT_EQ(snapshot.graph->NumNodes(), 8u);
  EXPECT_EQ(store.latest_version(), kWriters * kRounds);
}

}  // namespace
}  // namespace hkpr
