#include "graph/graph_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <vector>

#include "graph/graph_builder.h"

namespace hkpr {

namespace {

constexpr char kMagicV2[8] = {'H', 'K', 'P', 'R', 'C', 'S', 'R', '2'};
constexpr uint32_t kFormatVersion = 2;
constexpr uint32_t kEndianCheck = 0x01020304u;
constexpr uint64_t kSectionAlign = 64;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// The fixed 64-byte v2 header (one section-aligned block).
struct BinaryHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian_check;
  uint64_t num_nodes;
  uint64_t num_arcs;
  uint64_t flags;
  uint64_t offsets_pos;
  uint64_t adjacency_pos;
  uint64_t reserved;  // written as 0, not read
};
static_assert(sizeof(BinaryHeader) == kSectionAlign,
              "v2 header must fill exactly one aligned block");

uint64_t AlignUp(uint64_t pos) {
  return (pos + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

bool WritePadding(std::FILE* f, uint64_t current, uint64_t target) {
  static const char kZeros[kSectionAlign] = {};
  if (target < current) return false;
  return std::fwrite(kZeros, 1, target - current, f) == target - current;
}

/// Owns one read-only mmap'd file region; Graphs returned by MapBinary()
/// keep a shared_ptr to this, so the region outlives GraphStore::Remove()
/// for as long as any in-flight query holds the graph.
struct MappedFile {
  void* data = nullptr;
  size_t size = 0;

  ~MappedFile() {
    if (data != nullptr) ::munmap(data, size);
  }
};

/// Checks a header whose magic has been checked already.
Status HeaderError(const std::string& path, const BinaryHeader& header) {
  if (header.endian_check != kEndianCheck) {
    return Status::IOError(path +
                           ": byte-order mismatch (file written on a "
                           "different-endianness machine)");
  }
  if (header.version != kFormatVersion) {
    return Status::IOError(path + ": unsupported format version " +
                           std::to_string(header.version));
  }
  if (header.flags != 0) {
    return Status::IOError(path + ": unsupported section flags " +
                           std::to_string(header.flags));
  }
  if (header.num_nodes > 0xFFFFFFFFull - 1) {
    return Status::OutOfRange(path + ": node count exceeds 32 bits");
  }
  return Status::OK();
}

/// Validates that a section of `count` elements of `size` bytes at `pos`
/// lies inside the file and is aligned for in-place pointing. The count is
/// bounded by the bytes left divided by `size`: a product could wrap.
Status CheckSection(const std::string& path, const char* what, uint64_t pos,
                    uint64_t count, uint64_t size, uint64_t file_size) {
  if (pos % kSectionAlign != 0) {
    return Status::IOError(path + ": misaligned " + std::string(what) +
                           " section");
  }
  if (pos > file_size || count > (file_size - pos) / size) {
    return Status::IOError(path + ": truncated " + std::string(what) +
                           " section");
  }
  return Status::OK();
}

/// Structural sanity of mapped CSR sections; linear scans, done once per
/// load so a corrupt file can never become an out-of-bounds read on the
/// query path.
Status ValidateCsrSections(const std::string& path,
                           std::span<const uint64_t> offsets,
                           std::span<const NodeId> adjacency) {
  const uint64_t n = offsets.size() - 1;
  if (offsets.front() != 0 || offsets.back() != adjacency.size()) {
    return Status::IOError(path + ": offsets do not span the adjacency");
  }
  for (uint64_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::IOError(path + ": offsets not monotone at node " +
                             std::to_string(v));
    }
  }
  for (const NodeId u : adjacency) {
    if (u >= n) {
      return Status::IOError(path + ": adjacency id out of range");
    }
  }
  return Status::OK();
}

/// Bytes per read(2) while loading an edge list. The buffer grows only for
/// a line longer than itself. A larger one reads no faster and, freed,
/// leaves the server's resident set larger.
constexpr size_t kReadChunk = 64 * 1024;

/// Closes a file descriptor when it goes out of scope.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// read(2), retried when a signal interrupts it.
ssize_t ReadRetry(int fd, char* out, size_t count) {
  ssize_t got;
  do {
    got = ::read(fd, out, count);
  } while (got < 0 && errno == EINTR);
  return got;
}

bool IsDigit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

/// Field separators: the whitespace strtoull skips, less the newline.
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Reads the run of decimal digits at `p`, which starts with a digit, into
/// `id` and returns the position after it. Past kMaxNodeId the value stops
/// growing, so a run of any length reads as out of range without
/// overflowing.
const char* ParseId(const char* p, uint64_t& id) {
  id = static_cast<uint64_t>(*p++ - '0');
  for (; IsDigit(*p); ++p) {
    if (id <= kMaxNodeId) id = id * 10 + static_cast<uint64_t>(*p - '0');
  }
  return p;
}

Status MalformedLine(const std::string& path, size_t line_no) {
  return Status::IOError(path + ": malformed line " + std::to_string(line_no));
}

/// Parses the lines in [p, end), each ending in '\n', into `builder`;
/// `line_no` counts the lines of the file parsed so far. The newline that
/// ends each line also ends every scan, so none checks `end`.
Status ParseEdgeLines(const std::string& path, const char* p, const char* end,
                      size_t& line_no, GraphBuilder& builder) {
  while (p < end) {
    ++line_no;
    while (IsBlank(*p)) ++p;
    if (IsDigit(*p)) {
      uint64_t u = 0;
      uint64_t v = 0;
      p = ParseId(p, u);
      if (!IsBlank(*p)) return MalformedLine(path, line_no);
      while (IsBlank(*p)) ++p;
      if (!IsDigit(*p)) return MalformedLine(path, line_no);
      p = ParseId(p, v);
      if (u > kMaxNodeId || v > kMaxNodeId) {
        return Status::OutOfRange(path + ": node id exceeds 32 bits at line " +
                                  std::to_string(line_no));
      }
      builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    } else if (*p != '#' && *p != '%' && *p != '\n') {
      return MalformedLine(path, line_no);
    }
    // Skip the rest of the line: a comment, or columns past the second id.
    if (*p != '\n') {
      p = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<size_t>(end - p)));
    }
    ++p;
  }
  return Status::OK();
}

/// Reserves `builder` for a whole file of `file_size` bytes at the edge
/// density of its first `parsed` bytes, plus an eighth, so the edge array is
/// rarely reallocated. Every edge takes at least four bytes ("0 1\n"), so
/// the product cannot overflow. It is only a hint: a sparse file can claim
/// more than memory holds, and then the array grows as edges arrive.
void ReserveForFile(GraphBuilder& builder, uint64_t parsed,
                    uint64_t file_size) {
  uint64_t estimate =
      builder.NumPendingEdges() * ((file_size + parsed - 1) / parsed);
  estimate += estimate / 8;
  try {
    builder.ReserveEdges(estimate);
  } catch (const std::exception&) {
    // Left to grow as edges arrive.
  }
}

}  // namespace

Result<Graph> LoadEdgeList(const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) return Status::IOError("cannot open " + path);
  struct stat st = {};
  const uint64_t file_size =
      ::fstat(fd.get(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;

  GraphBuilder builder;
  std::vector<char> buffer(kReadChunk);
  size_t filled = 0;  // bytes read but not parsed: an unfinished line
  size_t line_no = 0;
  ssize_t got = ReadRetry(fd.get(), buffer.data(), buffer.size());
  for (bool first = true; got > 0; first = false) {
    filled += static_cast<size_t>(got);
    const char* begin = buffer.data();
    const char* last = static_cast<const char*>(memrchr(begin, '\n', filled));
    if (last != nullptr) {
      const size_t complete = static_cast<size_t>(last + 1 - begin);
      Status status =
          ParseEdgeLines(path, begin, begin + complete, line_no, builder);
      if (!status.ok()) return status;
      std::memmove(buffer.data(), begin + complete, filled - complete);
      filled -= complete;
    } else if (filled == buffer.size()) {
      buffer.resize(2 * buffer.size());  // a line longer than the buffer
    }
    if (first) ReserveForFile(builder, static_cast<uint64_t>(got), file_size);
    got = ReadRetry(fd.get(), buffer.data() + filled, buffer.size() - filled);
  }
  if (got < 0) {
    return Status::IOError("cannot read " + path + ": " +
                           std::strerror(errno));
  }
  if (filled > 0) {
    // The last line has no newline. The loop leaves room to add one.
    buffer[filled++] = '\n';
    Status status = ParseEdgeLines(path, buffer.data(),
                                   buffer.data() + filled, line_no, builder);
    if (!status.ok()) return status;
  }
  return builder.Build();
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  std::fprintf(f.get(), "# undirected graph: %u nodes, %llu edges\n",
               graph.NumNodes(),
               static_cast<unsigned long long>(graph.NumEdges()));
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v : graph.Neighbors(u)) {
      if (u < v) std::fprintf(f.get(), "%u %u\n", u, v);
    }
  }
  return Status::OK();
}

Status SaveBinary(const Graph& graph, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open " + path + " for writing");

  const uint64_t n = graph.NumNodes();
  const uint64_t arcs = graph.adjacency().size();

  BinaryHeader header = {};
  std::memcpy(header.magic, kMagicV2, sizeof(kMagicV2));
  header.version = kFormatVersion;
  header.endian_check = kEndianCheck;
  header.num_nodes = n;
  header.num_arcs = arcs;
  header.offsets_pos = sizeof(BinaryHeader);
  header.adjacency_pos =
      AlignUp(header.offsets_pos + (n + 1) * sizeof(uint64_t));

  if (std::fwrite(&header, sizeof(header), 1, f.get()) != 1 ||
      std::fwrite(graph.offsets().data(), sizeof(uint64_t), n + 1, f.get()) !=
          n + 1 ||
      !WritePadding(f.get(), header.offsets_pos + (n + 1) * sizeof(uint64_t),
                    header.adjacency_pos) ||
      (arcs > 0 && std::fwrite(graph.adjacency().data(), sizeof(NodeId), arcs,
                               f.get()) != arcs)) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Result<Graph> MapBinary(const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) return Status::IOError("cannot open " + path);
  struct stat st = {};
  if (::fstat(fd.get(), &st) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);

  // The header is checked before anything is mapped. The magic comes first,
  // so a short non-graph file reports "bad magic", not "truncated".
  BinaryHeader header = {};
  const ssize_t got =
      ReadRetry(fd.get(), reinterpret_cast<char*>(&header), sizeof(header));
  if (got >= static_cast<ssize_t>(sizeof(kMagicV2)) &&
      std::memcmp(header.magic, kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::IOError(path + ": bad magic (not an hkpr binary graph)");
  }
  if (got != static_cast<ssize_t>(sizeof(header))) {
    return Status::IOError(path + ": truncated header");
  }
  Status status = HeaderError(path, header);
  if (!status.ok()) return status;

  const uint64_t n = header.num_nodes;
  const uint64_t arcs = header.num_arcs;
  status = CheckSection(path, "offsets", header.offsets_pos, n + 1,
                        sizeof(uint64_t), file_size);
  if (!status.ok()) return status;
  status = CheckSection(path, "adjacency", header.adjacency_pos, arcs,
                        sizeof(NodeId), file_size);
  if (!status.ok()) return status;

  void* mapping =
      ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd.get(), 0);
  if (mapping == MAP_FAILED) {
    return Status::IOError("mmap failed for " + path + ": " +
                           std::strerror(errno));
  }
  // The mapping pins the file contents; the descriptor closes on return.
  auto region = std::make_shared<MappedFile>();
  region->data = mapping;
  region->size = file_size;

  const char* base = static_cast<const char*>(mapping);
  std::span<const uint64_t> offsets(
      reinterpret_cast<const uint64_t*>(base + header.offsets_pos), n + 1);
  std::span<const NodeId> adjacency(
      reinterpret_cast<const NodeId*>(base + header.adjacency_pos), arcs);
  status = ValidateCsrSections(path, offsets, adjacency);
  if (!status.ok()) return status;
  return Graph::FromExternal(offsets, adjacency, std::move(region));
}

}  // namespace hkpr
