// Graph serialization: SNAP-style edge-list text and a fast binary format.
//
// The binary CSR snapshot format (v2) is designed for serving large graphs:
//
//   byte [ 0,  8)  magic "HKPRCSR2"
//   byte [ 8, 12)  u32 format version (= 2)
//   byte [12, 16)  u32 byte-order check (kEndianCheck, 0x01020304): a file
//                  written on a different-endianness machine fails loudly
//                  instead of deserializing garbage
//   byte [16, 24)  u64 n (node count)
//   byte [24, 32)  u64 arcs (2m adjacency entries)
//   byte [32, 40)  u64 section flags; must be 0
//   byte [40, 48)  u64 file offset of the offsets section
//   byte [48, 56)  u64 file offset of the adjacency section
//   byte [56, 64)  reserved, written as 0 and not read
//   sections       offsets: (n+1) x u64; adjacency: arcs x u32 — each
//                  beginning at a 64-byte-aligned file offset (zero padding
//                  between sections)
//
// The 64-byte alignment means the sections can be pointed at *in place* by
// MapBinary(): the graph's CSR spans alias the mmap'd region, so loading a
// multi-gigabyte snapshot is O(1) page-table work, the resident cost is
// shared page cache (many processes / many GraphStore entries, one copy),
// and eviction under memory pressure is the kernel's problem.

#ifndef HKPR_GRAPH_GRAPH_IO_H_
#define HKPR_GRAPH_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace hkpr {

/// Loads an undirected graph from an edge-list text file (the SNAP
/// distribution format); the graph is symmetrized, deduplicated and
/// stripped of self-loops, and has 1 + the largest id nodes.
///
/// Syntax, line by line ('\n' ends a line, and the last line needs none):
///   - Blanks are ' ', '\t', '\r', '\v' and '\f'; any run may lead a line.
///   - A line that is blank, or whose first non-blank byte is '#' or '%',
///     adds nothing.
///   - Any other line is an edge: an id, at least one blank, an id, then
///     anything (further columns) up to the end of the line.
///   - An id is a run of decimal digits, no sign, at most kMaxNodeId
///     (4294967294).
/// Lines may be of any length: the file is read in 64 KiB pieces, and the
/// buffer grows only to hold a line longer than that.
///
/// Errors: kIOError "cannot open"/"cannot read" when the file cannot be
/// read, and kIOError "malformed line N" for a line that breaks the syntax;
/// kOutOfRange "node id exceeds 32 bits at line N" for an id past
/// kMaxNodeId. N counts lines from 1.
Result<Graph> LoadEdgeList(const std::string& path);

/// Writes the graph as an edge-list text file with one "u v" line per
/// undirected edge (u < v), preceded by a comment header.
Status SaveEdgeList(const Graph& graph, const std::string& path);

/// Writes the binary CSR snapshot format (v2, see the header comment).
Status SaveBinary(const Graph& graph, const std::string& path);

/// Maps a v2 binary CSR snapshot read-only into memory and returns a Graph
/// whose CSR spans alias the mapping (zero copy; the mapping is unmapped
/// when the last Graph copy dies, so a GraphStore::Remove() under in-flight
/// queries is safe). The header is checked before anything is mapped, and
/// the sections are scanned once for structural sanity — offsets monotone
/// and spanning the adjacency, adjacency ids < n — so every row of the
/// returned graph lies inside adjacency(). Corrupt, truncated, bad-magic,
/// wrong-endian and non-v2 files, and files with nonzero section flags,
/// report a clean Status error (never abort), with no allocation sized
/// from the file.
Result<Graph> MapBinary(const std::string& path);

}  // namespace hkpr

#endif  // HKPR_GRAPH_GRAPH_IO_H_
