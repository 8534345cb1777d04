// Tests for Graph, GraphBuilder and CSR invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace hkpr {
namespace {

using testing::MakeBarbell;
using testing::MakeComplete;
using testing::MakeCycle;
using testing::MakePath;
using testing::MakeStar;

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Volume(), 0u);
}

TEST(GraphBuilderTest, DeclaredIsolatedNodes) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.NumNodes(), 5u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(4), 0u);
}

TEST(GraphBuilderTest, RemovesSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(2, 2);
  Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(2), 0u);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphBuilderTest, GrowsNodeCountFromEdges) {
  GraphBuilder b;
  b.AddEdge(10, 3);
  Graph g = b.Build();
  EXPECT_EQ(g.NumNodes(), 11u);
  EXPECT_EQ(g.Degree(10), 1u);
}

TEST(GraphBuilderTest, SymmetrizesArcs) {
  GraphBuilder b(4);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  auto n2 = g.Neighbors(2);
  auto n3 = g.Neighbors(3);
  ASSERT_EQ(n2.size(), 1u);
  ASSERT_EQ(n3.size(), 1u);
  EXPECT_EQ(n2[0], 3u);
  EXPECT_EQ(n3[0], 2u);
}

TEST(GraphTest, AdjacencyRowsSortedAndUnique) {
  Rng rng(5);
  GraphBuilder b(200);
  for (int i = 0; i < 2000; ++i) {
    b.AddEdge(static_cast<NodeId>(rng.UniformInt(200)),
              static_cast<NodeId>(rng.UniformInt(200)));
  }
  Graph g = b.Build();
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    auto nbrs = g.Neighbors(v);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1], nbrs[i]);
    }
    for (NodeId u : nbrs) EXPECT_NE(u, v);
  }
}

TEST(GraphTest, VolumeIsTwiceEdges) {
  Graph g = MakeCycle(10);
  EXPECT_EQ(g.NumEdges(), 10u);
  EXPECT_EQ(g.Volume(), 20u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);
}

TEST(GraphTest, StarDegrees) {
  Graph g = MakeStar(6);
  EXPECT_EQ(g.Degree(0), 5u);
  for (NodeId v = 1; v < 6; ++v) EXPECT_EQ(g.Degree(v), 1u);
  EXPECT_EQ(g.MaxDegree(), 5u);
}

TEST(GraphTest, CompleteGraphEdges) {
  Graph g = MakeComplete(7);
  EXPECT_EQ(g.NumEdges(), 21u);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(g.Degree(v), 6u);
}

TEST(GraphTest, HasEdge) {
  Graph g = MakePath(4);  // 0-1-2-3
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(GraphTest, RandomNeighborIsANeighbor) {
  Graph g = MakeBarbell(5);
  Rng rng(9);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (int i = 0; i < 20; ++i) {
      const NodeId u = g.RandomNeighbor(v, rng);
      EXPECT_TRUE(g.HasEdge(v, u));
    }
  }
}

TEST(GraphTest, RandomNeighborCoversAll) {
  Graph g = MakeStar(5);
  Rng rng(10);
  std::set<NodeId> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(g.RandomNeighbor(0, rng));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(GraphTest, VolumeOfSubset) {
  Graph g = MakeStar(5);
  std::vector<NodeId> nodes = {0, 1};
  EXPECT_EQ(g.VolumeOf(nodes), 5u);
}

TEST(GraphTest, MemoryBytesPositive) {
  Graph g = MakeCycle(100);
  EXPECT_GT(g.MemoryBytes(), 100u * sizeof(NodeId));
}

TEST(GraphTest, FromCsrRoundTrip) {
  Graph g = MakeBarbell(4);
  Graph g2 = Graph::FromCsr({g.offsets().begin(), g.offsets().end()},
                            {g.adjacency().begin(), g.adjacency().end()});
  EXPECT_EQ(g2.NumNodes(), g.NumNodes());
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(g2.Degree(v), g.Degree(v));
  }
}

TEST(GraphDeathTest, FromCsrRejectsBadOffsets) {
  // offsets.back() != adjacency.size()
  EXPECT_DEATH(Graph::FromCsr({0, 2}, {1}), "");
}

TEST(GraphBuilderDeathTest, RejectsIdWithNoNodeCount) {
  // Node count 0xFFFFFFFF + 1 would wrap to 0.
  GraphBuilder b;
  EXPECT_DEATH(b.AddEdge(0xFFFFFFFFu, 0), "kMaxNodeId");
  EXPECT_DEATH(b.AddEdge(1, 0xFFFFFFFFu), "kMaxNodeId");
}

TEST(GraphBuilderTest, BuilderReusableAfterBuild) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  Graph g1 = b.Build();
  EXPECT_EQ(g1.NumEdges(), 1u);
  // After Build() the builder is empty and can accumulate a new graph.
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  Graph g2 = b.Build();
  EXPECT_EQ(g2.NumEdges(), 2u);
}

}  // namespace
}  // namespace hkpr
