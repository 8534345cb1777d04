// Tests for edge-list / binary graph serialization and community files.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/community.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "service/graph_store.h"
#include "test_util.h"

namespace hkpr {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(GraphIoTest, EdgeListRoundTrip) {
  Graph g = testing::MakeBarbell(6);
  const std::string path = TempPath("barbell.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Graph& g2 = loaded.value();
  EXPECT_EQ(g2.NumNodes(), g.NumNodes());
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(g2.Degree(v), g.Degree(v)) << v;
  }
}

TEST(GraphIoTest, EdgeListSkipsCommentsAndBlanks) {
  const std::string path = TempPath("comments.txt");
  std::ofstream out(path);
  out << "# SNAP style comment\n% matrix-market comment\n\n0 1\n1\t2\n";
  out.close();
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumNodes(), 3u);
  EXPECT_EQ(loaded.value().NumEdges(), 2u);
}

TEST(GraphIoTest, EdgeListSymmetrizesAndDedups) {
  const std::string path = TempPath("dups.txt");
  std::ofstream out(path);
  out << "0 1\n1 0\n0 1\n2 2\n";
  out.close();
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumEdges(), 1u);
  EXPECT_EQ(loaded.value().NumNodes(), 3u);  // node 2 kept, loop dropped
}

TEST(GraphIoTest, EdgeListMissingFileFails) {
  auto loaded = LoadEdgeList(TempPath("does_not_exist.txt"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, EdgeListMalformedLineFails) {
  const std::string path = TempPath("malformed.txt");
  std::ofstream out(path);
  out << "0 1\nnot numbers\n";
  out.close();
  auto loaded = LoadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
}

/// Writes `text` to a fresh temp file and loads it as an edge list.
Result<Graph> LoadEdgeListText(const std::string& name,
                               const std::string& text) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  return LoadEdgeList(path);
}

TEST(GraphIoTest, EdgeListRejectsIdPastMaxNodeId) {
  // 4294967295 would make the node count wrap to 0; it is out of range, and
  // the message names the line.
  auto loaded = LoadEdgeListText("id_max.txt", "0 1\n4294967295 0\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(loaded.status().message().find("node id exceeds 32 bits at line 2"),
            std::string::npos)
      << loaded.status();

  loaded = LoadEdgeListText("id_huge.txt", "1 99999999999999999999999999\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
}

TEST(GraphIoTest, EdgeListLongLineIsOneEdge) {
  // Columns past the second id are ignored, however far along the line.
  auto loaded = LoadEdgeListText("long_line.txt",
                                 "0 1" + std::string(300, ' ') + "7 9\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().NumNodes(), 2u);
  EXPECT_EQ(loaded.value().NumEdges(), 1u);
}

TEST(GraphIoTest, EdgeListLongCommentThenEdge) {
  auto loaded = LoadEdgeListText(
      "long_comment.txt", "#" + std::string(289, 'c') + "\n0 1\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().NumNodes(), 2u);
  EXPECT_EQ(loaded.value().NumEdges(), 1u);
}

TEST(GraphIoTest, EdgeListMalformedLineNumberCountsLongLines) {
  auto loaded =
      LoadEdgeListText("long_then_bad.txt", "#" + std::string(299, 'c') +
                                                "\n0 1\nnot numbers\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("malformed line 3"),
            std::string::npos)
      << loaded.status();
}

TEST(GraphIoTest, EdgeListCrlfBlankLineIsBlank) {
  auto loaded = LoadEdgeListText("crlf.txt", "0 1\r\n\r\n \t\r\n1 2\r\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().NumNodes(), 3u);
  EXPECT_EQ(loaded.value().NumEdges(), 2u);
}

TEST(GraphIoTest, EdgeListSignedIdsAreMalformed) {
  // An id is a run of decimal digits: no sign.
  for (const char* text : {"+5 1\n", "0 -0\n", "0 +1\n", "-0 1\n"}) {
    auto loaded = LoadEdgeListText("signed.txt", text);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << text;
    EXPECT_NE(loaded.status().message().find("malformed line 1"),
              std::string::npos)
        << loaded.status();
  }
}

TEST(GraphIoTest, EdgeListLinesLongerThanTheReadBuffer) {
  // Lines past the 64 KiB read buffer, and a last line with no newline.
  const std::string text = "#" + std::string(200000, 'c') + "\n0" +
                           std::string(150000, ' ') + "1\n1\t2";
  auto loaded = LoadEdgeListText("huge_lines.txt", text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().NumNodes(), 3u);
  EXPECT_EQ(loaded.value().NumEdges(), 2u);

  loaded = LoadEdgeListText("huge_then_bad.txt", text + "\n2 x\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("malformed line 4"),
            std::string::npos)
      << loaded.status();
}

TEST(GraphIoTest, EdgeListIdsSplitAcrossReads) {
  // A comment pads the file so that the 64 KiB read boundary falls at each
  // byte of "12\t 34\n" in turn.
  const std::string line = "12\t 34\n";
  for (size_t cut = 0; cut <= line.size(); ++cut) {
    const std::string pad = "#" + std::string(64 * 1024 - 2 - cut, 'c') + "\n";
    auto loaded = LoadEdgeListText("split.txt", pad + line + "5 6");
    ASSERT_TRUE(loaded.ok()) << "cut " << cut << ": " << loaded.status();
    EXPECT_EQ(loaded.value().NumNodes(), 35u) << cut;
    EXPECT_EQ(loaded.value().NumEdges(), 2u) << cut;
    EXPECT_TRUE(loaded.value().HasEdge(12, 34)) << cut;

    loaded = LoadEdgeListText("split_bad.txt", pad + "12\t x\n");
    ASSERT_FALSE(loaded.ok()) << cut;
    EXPECT_NE(loaded.status().message().find("malformed line 2"),
              std::string::npos)
        << loaded.status();
  }
}

TEST(GraphIoTest, BinaryRoundTrip) {
  Graph g = PowerlawCluster(500, 3, 0.4, 7);
  const std::string path = TempPath("plc.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  auto loaded = MapBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().NumNodes(), g.NumNodes());
  EXPECT_TRUE(std::ranges::equal(loaded.value().adjacency(), g.adjacency()));
  EXPECT_TRUE(std::ranges::equal(loaded.value().offsets(), g.offsets()));
}

TEST(GraphIoTest, BinaryRejectsWrongMagic) {
  const std::string path = TempPath("bad.bin");
  std::ofstream out(path, std::ios::binary);
  out << "NOTAGRAPHFILE";
  out.close();
  auto loaded = MapBinary(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(GraphIoTest, BinaryEmptyGraph) {
  Graph g;
  GraphBuilder b(4);
  g = b.Build();
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  auto loaded = MapBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumNodes(), 4u);
  EXPECT_EQ(loaded.value().NumEdges(), 0u);
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes a copy of the file at `path` with `count` bytes at `offset`
/// replaced by `patch`, to a fresh path, and returns it.
std::string PatchedCopy(const std::string& path, size_t offset,
                        const void* patch, size_t count,
                        const std::string& name) {
  std::vector<char> bytes = ReadFileBytes(path);
  EXPECT_LE(offset + count, bytes.size());
  std::memcpy(bytes.data() + offset, patch, count);
  const std::string out = TempPath(name);
  WriteFileBytes(out, bytes);
  return out;
}

TEST(BinaryCsrTest, V2FileStartsWithMagicAndRoundTripsBitIdentically) {
  Graph g = PowerlawCluster(800, 4, 0.3, 21);
  const std::string path = TempPath("v2.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());

  const std::vector<char> bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 64u);
  EXPECT_EQ(std::memcmp(bytes.data(), "HKPRCSR2", 8), 0);

  uint64_t flags = 1, reserved = 1;
  std::memcpy(&flags, bytes.data() + 32, 8);
  std::memcpy(&reserved, bytes.data() + 56, 8);
  EXPECT_EQ(flags, 0u);
  EXPECT_EQ(reserved, 0u);

  auto loaded = MapBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(std::ranges::equal(loaded.value().offsets(), g.offsets()));
  EXPECT_TRUE(std::ranges::equal(loaded.value().adjacency(), g.adjacency()));

  // A second save of the loaded graph must be byte-identical: the format
  // has no timestamps or other nondeterminism.
  const std::string path2 = TempPath("v2_again.bin");
  ASSERT_TRUE(SaveBinary(loaded.value(), path2).ok());
  EXPECT_EQ(ReadFileBytes(path2), bytes);
}

TEST(BinaryCsrTest, SectionsAre64ByteAligned) {
  Graph g = testing::MakeBarbell(5);  // (n+1)*8 not a multiple of 64
  const std::string path = TempPath("aligned.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  const std::vector<char> bytes = ReadFileBytes(path);
  uint64_t offsets_pos = 0, adjacency_pos = 0;
  std::memcpy(&offsets_pos, bytes.data() + 40, 8);
  std::memcpy(&adjacency_pos, bytes.data() + 48, 8);
  EXPECT_EQ(offsets_pos % 64, 0u);
  EXPECT_EQ(adjacency_pos % 64, 0u);
  EXPECT_GE(adjacency_pos, offsets_pos + (g.NumNodes() + 1) * 8);
  EXPECT_EQ(bytes.size(), adjacency_pos + g.adjacency().size() * 4);
}

TEST(BinaryCsrTest, MapBinaryMatchesSavedGraph) {
  Graph g = PowerlawCluster(700, 4, 0.2, 23);
  const std::string path = TempPath("mapped.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());

  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped.value().mmap_backed());
  EXPECT_TRUE(std::ranges::equal(mapped.value().offsets(), g.offsets()));
  EXPECT_TRUE(std::ranges::equal(mapped.value().adjacency(), g.adjacency()));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_TRUE(
        std::ranges::equal(mapped.value().Neighbors(v), g.Neighbors(v)))
        << v;
  }
  // Copies share the mapping rather than duplicating it.
  Graph copy = mapped.value();
  EXPECT_EQ(copy.adjacency().data(), mapped.value().adjacency().data());
}

TEST(BinaryCsrTest, BadMagicDiagnosedEvenWhenFileIsShort) {
  const std::string path = TempPath("shortbad.bin");
  WriteFileBytes(path, {'N', 'O', 'T', 'A', 'F', 'I', 'L', 'E'});
  auto loaded = MapBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status();
}

TEST(BinaryCsrTest, WrongEndianRejected) {
  Graph g = testing::MakeBarbell(4);
  const std::string path = TempPath("endian_src.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  // A big-endian writer would store the check word byte-swapped.
  const uint32_t swapped = 0x04030201u;
  const std::string bad =
      PatchedCopy(path, 12, &swapped, sizeof(swapped), "endian_bad.bin");
  auto loaded = MapBinary(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("byte-order"), std::string::npos)
      << loaded.status();
}

TEST(BinaryCsrTest, UnsupportedVersionRejected) {
  Graph g = testing::MakeBarbell(4);
  const std::string path = TempPath("ver_src.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  const uint32_t future_version = 99;
  const std::string bad = PatchedCopy(path, 8, &future_version,
                                      sizeof(future_version), "ver_bad.bin");
  auto loaded = MapBinary(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(BinaryCsrTest, TruncatedFilesRejectedAtEveryCut) {
  Graph g = PowerlawCluster(300, 3, 0.3, 25);
  const std::string path = TempPath("trunc_src.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  const std::vector<char> bytes = ReadFileBytes(path);

  // Cut inside the header, the offsets section, and the adjacency section.
  for (const size_t cut : {size_t{20}, size_t{200}, bytes.size() - 8}) {
    ASSERT_LT(cut, bytes.size());
    const std::string cut_path =
        TempPath("trunc_" + std::to_string(cut) + ".bin");
    WriteFileBytes(cut_path,
                   std::vector<char>(bytes.begin(), bytes.begin() + cut));
    EXPECT_FALSE(MapBinary(cut_path).ok()) << "cut=" << cut;
  }
}

TEST(BinaryCsrTest, CorruptAdjacencyIdRejected) {
  Graph g = testing::MakeBarbell(6);
  const std::string path = TempPath("adj_src.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  const std::vector<char> bytes = ReadFileBytes(path);
  uint64_t adjacency_pos = 0;
  std::memcpy(&adjacency_pos, bytes.data() + 48, 8);
  const NodeId bogus = 0xFFFFFFF0u;  // far beyond NumNodes()
  const std::string bad = PatchedCopy(path, adjacency_pos, &bogus,
                                      sizeof(bogus), "adj_bad.bin");
  EXPECT_FALSE(MapBinary(bad).ok());
}

TEST(BinaryCsrTest, NonMonotoneOffsetsRejected) {
  Graph g = testing::MakeBarbell(6);
  const std::string path = TempPath("off_src.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  const std::vector<char> bytes = ReadFileBytes(path);
  uint64_t offsets_pos = 0;
  std::memcpy(&offsets_pos, bytes.data() + 40, 8);
  const uint64_t bogus = g.adjacency().size() + 1000;
  const std::string bad =
      PatchedCopy(path, offsets_pos + 8, &bogus, sizeof(bogus), "off_bad.bin");
  EXPECT_FALSE(MapBinary(bad).ok());
}

TEST(BinaryCsrTest, LegacyV1FilesAreRejectedCleanly) {
  // The pre-v2 "HKPRGRPH" layout is no longer read: MapBinary fails with
  // a Status instead of aborting.
  Graph g = testing::MakeBarbell(5);
  const std::string path = TempPath("legacy_v1.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("HKPRGRPH", 8);
    const uint64_t n = g.NumNodes();
    const uint64_t arcs = g.adjacency().size();
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(reinterpret_cast<const char*>(&arcs), 8);
    out.write(reinterpret_cast<const char*>(g.offsets().data()),
              static_cast<std::streamsize>((n + 1) * sizeof(uint64_t)));
    out.write(reinterpret_cast<const char*>(g.adjacency().data()),
              static_cast<std::streamsize>(arcs * sizeof(NodeId)));
  }
  auto loaded = MapBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status();
}

TEST(BinaryCsrTest, NonzeroFlagsRejected) {
  // No section flag is defined: a file that sets any bit, bit 0 included,
  // fails instead of mapping.
  Graph g = testing::MakeBarbell(5);
  const std::string path = TempPath("flags_src.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  for (const uint64_t flags :
       {uint64_t{1}, uint64_t{2}, uint64_t{1} << 63, ~uint64_t{0}}) {
    const std::string bad =
        PatchedCopy(path, 32, &flags, sizeof(flags), "flags_bad.bin");
    auto mapped = MapBinary(bad);
    ASSERT_FALSE(mapped.ok()) << flags;
    EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
    EXPECT_NE(mapped.status().message().find("section flags"),
              std::string::npos)
        << mapped.status();
  }
}

TEST(BinaryCsrTest, ForgedArcCountRejected) {
  // arcs = 2^62 with the last offset patched to match: arcs * 4 wraps to 0,
  // so only a bound on the count itself keeps the last row, 2^62 ids long,
  // from being handed to the query path.
  Graph g = PowerlawCluster(100, 3, 0.4, 7);
  const std::string path = TempPath("forged_src.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  std::vector<char> bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), 3136u);
  uint64_t offsets_pos = 0;
  std::memcpy(&offsets_pos, bytes.data() + 40, 8);
  const uint64_t forged = uint64_t{1} << 62;
  std::memcpy(bytes.data() + 24, &forged, 8);
  std::memcpy(bytes.data() + offsets_pos + 8 * g.NumNodes(), &forged, 8);
  const std::string bad = TempPath("forged_arcs.bin");
  WriteFileBytes(bad, bytes);

  auto mapped = MapBinary(bad);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
  EXPECT_NE(mapped.status().message().find("truncated adjacency"),
            std::string::npos)
      << mapped.status();
}

/// Overwrites `width` bytes at `pos` with the low bytes of `value`.
void PutWord(std::vector<char>& bytes, size_t pos, uint64_t value,
             size_t width = 8) {
  std::memcpy(&bytes[pos], &value, width);
}

/// Every row inside adjacency() and every id < n. Each neighbour is read
/// once, as a query would read it.
::testing::AssertionResult RowsInBounds(const Graph& g) {
  const std::span<const NodeId> adjacency = g.adjacency();
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const std::span<const NodeId> row = g.Neighbors(v);
    if (row.data() < adjacency.data() ||
        row.data() + row.size() > adjacency.data() + adjacency.size()) {
      return ::testing::AssertionFailure() << "row " << v << " outside";
    }
    for (const NodeId u : row) {
      if (u >= g.NumNodes()) {
        return ::testing::AssertionFailure() << "arc " << v << " -> " << u;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(BinaryCsrTest, MutatedSnapshotsFailCleanlyOrMapInBounds) {
  // Seeded mutations of saved graphs: single bytes anywhere, header fields
  // and offset words set to edge values, the arcs/last-offset pair set
  // together, and truncation. Each file either fails MapBinary with a
  // Status or maps a graph whose rows all lie inside its adjacency.
  const std::vector<Graph> graphs = {
      PowerlawCluster(100, 3, 0.4, 7), testing::MakeBarbell(5),
      GraphBuilder(4).Build(), GraphBuilder(1).Build()};
  std::vector<std::vector<char>> bases;
  for (const Graph& g : graphs) {
    const std::string path = TempPath("mutation_src.bin");
    ASSERT_TRUE(SaveBinary(g, path).ok());
    bases.push_back(ReadFileBytes(path));
  }
  const std::string path = TempPath("mutated.bin");
  Rng rng(22);
  size_t mapped_ok = 0;
  size_t failed = 0;
  for (int i = 0; i < 4000; ++i) {
    const size_t which = rng.UniformInt(bases.size());
    std::vector<char> bytes = bases[which];
    const uint64_t n = graphs[which].NumNodes();
    uint64_t offsets_pos = 0;
    std::memcpy(&offsets_pos, bytes.data() + 40, 8);
    const uint64_t edge_values[] = {
        0, 1, n, uint64_t{1} << 32, uint64_t{1} << 62, ~uint64_t{0}};
    const uint64_t value = edge_values[rng.UniformInt(std::size(edge_values))];
    switch (rng.UniformInt(5)) {
      case 0:  // one byte anywhere
        bytes[rng.UniformInt(bytes.size())] =
            static_cast<char>(rng.UniformInt(256));
        break;
      case 1: {  // a header field: version, byte order, or a u64 word
        const size_t field = rng.UniformInt(8);
        if (field < 2) {
          PutWord(bytes, 8 + 4 * field, value, 4);
        } else {
          PutWord(bytes, 8 * field, value);
        }
        break;
      }
      case 2:  // an offset word
        PutWord(bytes, offsets_pos + 8 * rng.UniformInt(n + 1), value);
        break;
      case 3:  // the arc count with the last offset to match
        PutWord(bytes, 24, value);
        PutWord(bytes, offsets_pos + 8 * n, value);
        break;
      default:
        bytes.resize(rng.UniformInt(bytes.size()));
        break;
    }
    WriteFileBytes(path, bytes);
    Result<Graph> mapped = MapBinary(path);
    if (!mapped.ok()) {
      const StatusCode code = mapped.status().code();
      ASSERT_TRUE(code == StatusCode::kIOError ||
                  code == StatusCode::kOutOfRange)
          << mapped.status();
      ++failed;
      continue;
    }
    ++mapped_ok;
    ASSERT_TRUE(RowsInBounds(mapped.value())) << "mutation " << i;
  }
  // Both outcomes are exercised: at seed 22, 498 files map and 3502 fail.
  EXPECT_GT(mapped_ok, 300u);
  EXPECT_GT(failed, 2000u);
}

TEST(BinaryCsrTest, MappedSnapshotSurvivesGraphStoreRemove) {
  Graph g = PowerlawCluster(500, 3, 0.4, 26);
  const std::string path = TempPath("store_mapped.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());

  GraphStore store;
  {
    auto mapped = MapBinary(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    store.Publish("big", std::move(mapped).value());
  }
  GraphSnapshot snapshot = store.Get("big");
  ASSERT_TRUE(snapshot);
  ASSERT_TRUE(snapshot.graph->mmap_backed());

  // Remove drops the store's reference; the snapshot must keep the mapping
  // alive for in-flight readers (munmap happens with the last reference).
  ASSERT_TRUE(store.Remove("big"));
  EXPECT_FALSE(store.Get("big"));

  uint64_t checksum = 0;
  for (NodeId v = 0; v < snapshot.graph->NumNodes(); ++v) {
    for (NodeId u : snapshot.graph->Neighbors(v)) checksum += u;
  }
  uint64_t expected = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId u : g.Neighbors(v)) expected += u;
  }
  EXPECT_EQ(checksum, expected);
}

TEST(CommunitySetTest, SaveLoadRoundTrip) {
  CommunitySet cs;
  cs.Add({1, 2, 3});
  cs.Add({4, 5});
  cs.Add({6});
  const std::string path = TempPath("cmty.txt");
  ASSERT_TRUE(cs.Save(path).ok());
  auto loaded = CommunitySet::Load(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().NumCommunities(), 3u);
  EXPECT_EQ(loaded.value().Community(0), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(loaded.value().Community(2), (std::vector<NodeId>{6}));
}

TEST(CommunitySetTest, SizeFilter) {
  CommunitySet cs;
  cs.Add({1, 2, 3});
  cs.Add({4, 5});
  cs.Add({6, 7, 8, 9});
  auto big = cs.CommunitiesOfSizeAtLeast(3);
  EXPECT_EQ(big, (std::vector<size_t>{0, 2}));
}

TEST(CommunitySetTest, MembershipLookup) {
  CommunitySet cs;
  cs.Add({0, 1});
  cs.Add({2, 3});
  EXPECT_EQ(cs.CommunityOf(0, 5), 0);
  EXPECT_EQ(cs.CommunityOf(3, 5), 1);
  EXPECT_EQ(cs.CommunityOf(4, 5), -1);
}

}  // namespace
}  // namespace hkpr
