// Differential and mutation tests of the edge-list loader.
//
// The reference below is the loop LoadEdgeList replaced: one fgets line of
// at most 254 bytes at a time, ids read by strtoull. On the language both
// read correctly (comments, blank lines, tabs, CRLF data lines, trailing
// columns, duplicates, self-loops, short lines) LoadEdgeList must produce
// the reference's CSR byte for byte. Files mutated with non-digit bytes must
// load into a valid CSR or fail with IOError or OutOfRange; none may crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"

namespace hkpr {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// The loader before the chunked parser. Its range check lets id 4294967295
/// through; the files here keep every id below 100.
Result<Graph> ReferenceLoadEdgeList(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open " + path);

  GraphBuilder builder;
  char line[256];
  size_t line_no = 0;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++line_no;
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '#' || *p == '%' || *p == '\n' || *p == '\0') continue;
    char* end = nullptr;
    const unsigned long long u = std::strtoull(p, &end, 10);
    if (end == p) {
      return Status::IOError(path + ": malformed line " +
                             std::to_string(line_no));
    }
    p = end;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) {
      return Status::IOError(path + ": malformed line " +
                             std::to_string(line_no));
    }
    if (u > 0xFFFFFFFFull || v > 0xFFFFFFFFull) {
      return Status::OutOfRange(path + ": node id exceeds 32 bits at line " +
                                std::to_string(line_no));
    }
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return builder.Build();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string Pick(Rng& rng, const std::vector<std::string>& choices) {
  return choices[rng.UniformInt(choices.size())];
}

/// One to three spaces and tabs.
std::string Blanks(Rng& rng) {
  std::string out;
  const uint64_t count = 1 + rng.UniformInt(3);
  for (uint64_t i = 0; i < count; ++i) out += rng.Bernoulli(0.7) ? ' ' : '\t';
  return out;
}

/// A random edge list in the language both loaders read the same way. No
/// run of digits is longer than two, so no mutation below can form an id
/// of 100 or more, and every line is under 200 bytes.
std::string GenerateEdgeList(Rng& rng) {
  const uint64_t max_id = 1 + rng.UniformInt(99);
  const uint64_t num_lines = rng.UniformInt(60);
  std::vector<std::string> edges;
  std::string text;
  for (uint64_t i = 0; i < num_lines; ++i) {
    const uint64_t kind = rng.UniformInt(10);
    std::string line = rng.Bernoulli(0.2) ? Blanks(rng) : "";
    if (kind == 0) {
      line += rng.Bernoulli(0.5) ? '#' : '%';
      const uint64_t words = rng.UniformInt(12);
      for (uint64_t w = 0; w < words; ++w) {
        line += Pick(rng, {" ", "\t"}) + Pick(rng, {"nodes", "edges:", "7",
                                                    "42", "a-b", "x", "%",
                                                    "#", "+1", "0.5"});
      }
    } else if (kind == 1) {
      // A blank line: nothing, or spaces and tabs.
    } else {
      std::string edge;
      if (!edges.empty() && rng.Bernoulli(0.15)) {
        edge = edges[rng.UniformInt(edges.size())];  // a duplicate
      } else {
        const uint64_t u = rng.UniformInt(max_id + 1);
        const uint64_t v =
            rng.Bernoulli(0.05) ? u : rng.UniformInt(max_id + 1);
        edge = std::to_string(u) + Blanks(rng) + std::to_string(v);
        edges.push_back(edge);
      }
      line += edge;
      if (rng.Bernoulli(0.2)) {
        line += Blanks(rng) + Pick(rng, {"1", "0.25", "w", "17 3", "-1"});
      }
      if (rng.Bernoulli(0.1)) line += Blanks(rng);
      if (rng.Bernoulli(0.2)) line += '\r';
    }
    text += line + "\n";
  }
  if (!text.empty() && rng.Bernoulli(0.25)) text.pop_back();
  return text;
}

/// Applies one random single-byte replacement, insertion or truncation,
/// drawn from bytes that are not digits.
std::string Mutate(Rng& rng, std::string text) {
  static constexpr char kBytes[] = {' ', '\t', '\r', '\n', '#',
                                    '%', '+',  '-',  'x',  '\0'};
  const char byte = kBytes[rng.UniformInt(sizeof(kBytes))];
  switch (rng.UniformInt(3)) {
    case 0:
      if (!text.empty()) text[rng.UniformInt(text.size())] = byte;
      break;
    case 1:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng.UniformInt(text.size() + 1)),
                  byte);
      break;
    default:
      text.resize(rng.UniformInt(text.size() + 1));
      break;
  }
  return text;
}

::testing::AssertionResult SameCsr(const Graph& a, const Graph& b) {
  if (a.NumNodes() != b.NumNodes()) {
    return ::testing::AssertionFailure()
           << "nodes " << a.NumNodes() << " vs " << b.NumNodes();
  }
  if (!std::ranges::equal(a.offsets(), b.offsets())) {
    return ::testing::AssertionFailure() << "offsets differ";
  }
  if (!std::ranges::equal(a.adjacency(), b.adjacency())) {
    return ::testing::AssertionFailure() << "adjacency differs";
  }
  return ::testing::AssertionSuccess();
}

/// Offsets span the adjacency, each row is strictly increasing with ids in
/// range and no self-loop, and every arc has its reverse.
::testing::AssertionResult IsValidCsr(const Graph& g) {
  const auto offsets = g.offsets();
  if (offsets.size() != static_cast<size_t>(g.NumNodes()) + 1 ||
      offsets.front() != 0 || offsets.back() != g.adjacency().size()) {
    return ::testing::AssertionFailure() << "offsets do not span adjacency";
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return ::testing::AssertionFailure() << "offsets fall at " << v;
    }
    const auto row = g.Neighbors(v);
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i] >= g.NumNodes() || row[i] == v ||
          (i > 0 && row[i] <= row[i - 1]) || !g.HasEdge(row[i], v)) {
        return ::testing::AssertionFailure()
               << "bad arc " << v << " -> " << row[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(EdgeListReferenceTest, MatchesReferenceOnGeneratedFiles) {
  Rng rng(20);
  const std::string path = TempPath("edge_list_reference.txt");
  size_t nonempty = 0;
  std::string all;
  for (int i = 0; i < 400; ++i) {
    const std::string text = GenerateEdgeList(rng);
    all += text + "\n";
    WriteFile(path, text);
    Result<Graph> reference = ReferenceLoadEdgeList(path);
    ASSERT_TRUE(reference.ok()) << reference.status() << "\n" << text;
    Result<Graph> loaded = LoadEdgeList(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << text;
    ASSERT_TRUE(IsValidCsr(loaded.value())) << text;
    ASSERT_TRUE(SameCsr(loaded.value(), reference.value())) << text;
    nonempty += loaded.value().NumEdges() > 0;
  }
  EXPECT_GT(nonempty, 300u);

  // All of them, five times over, in one file: lines and ids straddle the
  // loader's 64 KiB reads.
  std::string joined;
  for (int i = 0; i < 5; ++i) joined += all;
  ASSERT_GT(joined.size(), 6u * 64 * 1024);
  WriteFile(path, joined);
  Result<Graph> reference = ReferenceLoadEdgeList(path);
  ASSERT_TRUE(reference.ok()) << reference.status();
  Result<Graph> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(SameCsr(loaded.value(), reference.value()));
}

TEST(EdgeListReferenceTest, MutatedFilesLoadValidOrFailCleanly) {
  Rng rng(21);
  const std::string path = TempPath("edge_list_mutated.txt");
  std::vector<std::string> bases;
  for (int i = 0; i < 100; ++i) bases.push_back(GenerateEdgeList(rng));
  size_t loaded_ok = 0;
  size_t failed = 0;
  size_t compared = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string text =
        Mutate(rng, bases[rng.UniformInt(bases.size())]);
    WriteFile(path, text);
    Result<Graph> loaded = LoadEdgeList(path);
    if (!loaded.ok()) {
      const StatusCode code = loaded.status().code();
      ASSERT_TRUE(code == StatusCode::kIOError ||
                  code == StatusCode::kOutOfRange)
          << loaded.status();
      ++failed;
      continue;
    }
    ++loaded_ok;
    ASSERT_TRUE(IsValidCsr(loaded.value())) << text;
    // Where the old loader also reads the file, the two agree.
    Result<Graph> reference = ReferenceLoadEdgeList(path);
    if (reference.ok()) {
      ASSERT_TRUE(SameCsr(loaded.value(), reference.value())) << text;
      ++compared;
    }
  }
  // Both outcomes are exercised: at seed 21, 2576 files load (2552 of them
  // compared with the reference) and 1424 fail.
  EXPECT_GT(loaded_ok, 1000u);
  EXPECT_GT(failed, 500u);
  EXPECT_GT(compared, 1000u);
}

}  // namespace
}  // namespace hkpr
