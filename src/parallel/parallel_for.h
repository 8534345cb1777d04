// Minimal data-parallel execution helpers.
//
// The paper notes (Section 6, citing Shun et al. VLDB'16) that HKPR
// estimation parallelizes well; this module provides the substrate the
// sharded walk phase (RunWalkPhase) builds on. Threads are spawned per
// call, which is acceptable for one-shot benchmark runs; repeated-query
// serving should use the persistent ThreadPool (parallel/thread_pool.h)
// instead, which keeps the same ParallelChunks partition but parks its
// workers between calls.

#ifndef HKPR_PARALLEL_PARALLEL_FOR_H_
#define HKPR_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace hkpr {

/// Number of hardware threads (at least 1).
inline uint32_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : static_cast<uint32_t>(hw);
}

/// Runs fn(thread_id) on `num_threads` threads and joins them. thread 0
/// runs on the calling thread.
inline void ParallelInvoke(uint32_t num_threads,
                           const std::function<void(uint32_t)>& fn) {
  if (num_threads <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_threads - 1);
  for (uint32_t tid = 1; tid < num_threads; ++tid) {
    workers.emplace_back(fn, tid);
  }
  fn(0);
  for (std::thread& w : workers) w.join();
}

/// Contiguous chunk [begin, end) of [0, total) for shard `tid` of `ways`;
/// chunk sizes differ by at most one item. Shared by ParallelChunks and
/// ThreadPool::ChunksLimit so their partitions cannot drift apart — the
/// pool's bit-identical-results guarantee depends on both using exactly
/// this decomposition.
struct ChunkRange {
  uint64_t begin;
  uint64_t end;
};

inline ChunkRange ChunkBounds(uint64_t total, uint32_t ways, uint32_t tid) {
  const uint64_t base = total / ways;
  const uint64_t remainder = total % ways;
  const uint64_t begin = tid * base + std::min<uint64_t>(tid, remainder);
  return {begin, begin + base + (tid < remainder ? 1 : 0)};
}

/// Splits [0, total) into `num_threads` contiguous chunks and runs
/// fn(thread_id, begin, end) in parallel. Chunks differ in size by at most
/// one item.
template <typename Fn>
void ParallelChunks(uint64_t total, uint32_t num_threads, Fn&& fn) {
  if (total == 0) return;
  if (num_threads > total) num_threads = static_cast<uint32_t>(total);
  ParallelInvoke(num_threads, [&](uint32_t tid) {
    const ChunkRange range = ChunkBounds(total, num_threads, tid);
    fn(tid, range.begin, range.end);
  });
}

}  // namespace hkpr

#endif  // HKPR_PARALLEL_PARALLEL_FOR_H_
