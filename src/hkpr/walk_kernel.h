// Interleaved random-walk kernel: memory-level parallelism for the walk phase.
//
// On graphs larger than L2 the walk phase is latency-bound: each
// RandomNeighbor is a dependent DRAM load (offsets row, then adjacency word),
// so a scalar walk loop leaves the memory pipeline idle between hops. This
// kernel keeps W independent walks in flight per worker and round-robin
// advances each one phase per visit, software-prefetching the cache lines the
// *next* visit will read (Graph::PrefetchNode / PrefetchNeighbors and the
// alias table's two-phase PrepareSample/ResolveSample). With W in-flight
// walks the dependent-load latency of one walk is hidden behind the work of
// the other W-1, turning the phase from latency-bound to bandwidth-bound.
//
// Randomness: each walk draws from its own CounterRng stream — stream i of
// WalkStreamSeed(engine seed, query epoch) — and consumes draws in the
// canonical per-walk order (alias column UniformInt, alias accept
// UniformDouble, then per hop: termination UniformDouble, neighbor
// UniformInt). Because every stream is a pure function of the walk index,
// the end node of walk i never depends on interleave width or on how the
// walk range is split into calls: results are bit-identical across widths.
//
// RunWalkPhase wraps the kernel into the one walk phase that TEA, TEA+ and
// Monte-Carlo share.

#ifndef HKPR_HKPR_WALK_KERNEL_H_
#define HKPR_HKPR_WALK_KERNEL_H_

#include <cstdint>
#include <utility>

#include "common/alias_sampler.h"
#include "common/random.h"
#include "graph/graph.h"
#include "hkpr/heat_kernel.h"

namespace hkpr {

class QueryWorkspace;

/// Hard cap on the interleave width. Past ~16 the line-fill buffers are the
/// bottleneck; 64 bounds the kernel's stack frame.
inline constexpr uint32_t kMaxWalkKernelWidth = 64;

/// Walk-phase configuration, threaded from the serving frontend through
/// BackendContext into every randomized-walk estimator.
struct WalkKernelOptions {
  /// In-flight walks per worker; clamped to [1, kMaxWalkKernelWidth].
  /// Width 1 degenerates to a scalar loop over the counter-RNG streams
  /// (same results as any other width, no overlap).
  uint32_t width = 8;
};

/// Below this CSR footprint a graph is treated as cache-resident: every
/// neighbor load hits LLC, prefetching buys nothing, and the interleave
/// state machine is pure overhead. EffectiveWalkWidth then drops to width 1
/// (a straight per-stream loop) — a pure execution-policy change, since the
/// kernel's output is a function of the streams alone, never the width.
inline constexpr size_t kInterleaveMinGraphBytes = size_t{4} << 20;

/// The width an estimator should actually run `options` with on `graph`:
/// options.width on DRAM-resident graphs, 1 on cache-resident ones.
inline uint32_t EffectiveWalkWidth(const Graph& graph,
                                   const WalkKernelOptions& options) {
  return graph.MemoryBytes() < kInterleaveMinGraphBytes ? 1u : options.width;
}

/// The stream family for one query: all walks of query number `epoch` on an
/// engine seeded with `engine_seed` draw from streams of this value. Mixed
/// twice so consecutive epochs share no low-bit structure.
inline uint64_t WalkStreamSeed(uint64_t engine_seed, uint64_t epoch) {
  return Mix64(engine_seed ^ Mix64(epoch + 0x9E3779B97F4A7C15ULL));
}

/// Where walks begin. With `alias` set, walk i draws an index from the alias
/// table (on its own stream) and starts at `entries[index]` = (node, hop) —
/// the TEA/TEA+ residue-guided start. With `alias` null, every walk starts
/// at (`fixed_node`, 0) — the Monte-Carlo case.
struct WalkStartSet {
  const AliasSampler* alias = nullptr;
  const std::pair<NodeId, uint32_t>* entries = nullptr;
  NodeId fixed_node = 0;
};

/// Runs walks `first_walk .. first_walk + num_walks` of the stream family
/// `stream_seed`, writing walk i's end node to `ends[i - first_walk]`.
/// Returns the total number of traversed edges; if `per_walk_steps` is
/// non-null, also records each walk's own count at the same local index.
/// Walk semantics are exactly KRandomWalk's (random_walk.cc): stop with
/// probability eta(k)/psi(k) per hop, hop cap at kernel.MaxHop(), stranded
/// (degree-0) positions stop in place.
///
/// Deterministic contract: the value of `ends[i]` depends only on
/// (stream_seed, first_walk + i, graph, kernel, starts) — never on `width`
/// or on how the walk range is partitioned across calls.
uint64_t RunInterleavedWalks(const Graph& graph, const HeatKernel& kernel,
                             const WalkStartSet& starts, uint64_t stream_seed,
                             uint64_t first_walk, uint64_t num_walks,
                             NodeId* ends, uint32_t width,
                             uint32_t* per_walk_steps = nullptr);

/// One query's walk phase: runs walks 0 .. num_walks - 1 of `stream_seed`
/// into `ws.walk_ends` at EffectiveWalkWidth(graph, options), then adds
/// `increment` to `ws.result` at each end node in walk-index order, so
/// `ws.result` is bit-identical for every width. Returns the total number
/// of traversed edges.
uint64_t RunWalkPhase(const Graph& graph, const HeatKernel& kernel,
                      const WalkStartSet& starts, uint64_t stream_seed,
                      uint64_t num_walks, double increment,
                      const WalkKernelOptions& options, QueryWorkspace& ws);

}  // namespace hkpr

#endif  // HKPR_HKPR_WALK_KERNEL_H_
