// Heap-allocation counters for the zero-allocation tests.
//
// The paper's Figure 5 reports memory overhead per algorithm. Process RSS is
// noisy and allocator-dependent, so estimators instead report the bytes held
// by their major data structures (residue tables, reserve vectors, alias
// structures, walk buffers) as EstimatorStats::peak_bytes, and the benches
// add the graph's Graph::MemoryBytes(), mirroring the paper's "including
// the input graph" accounting. This header counts something else: heap
// allocations, so tests can prove that a steady-state workspace query
// allocates nothing.

#ifndef HKPR_COMMON_MEM_TRACKER_H_
#define HKPR_COMMON_MEM_TRACKER_H_

#include <atomic>
#include <cstdint>

namespace hkpr {

/// Process-wide heap-allocation counters.
///
/// The counters are inert by default: they only advance when a translation
/// unit in the binary routes its global operator new/delete through
/// RecordAllocation/RecordDeallocation (the test suite does this to prove
/// that steady-state workspace queries perform zero heap allocations).
/// Everything is lock-free and async-signal-safe apart from the allocation
/// being counted.
class AllocCounters {
 public:
  /// Number of operator-new calls observed so far.
  static uint64_t Allocations() {
    return allocations_.load(std::memory_order_relaxed);
  }

  /// Number of operator-delete calls observed so far.
  static uint64_t Deallocations() {
    return deallocations_.load(std::memory_order_relaxed);
  }

  static void RecordAllocation() {
    allocations_.fetch_add(1, std::memory_order_relaxed);
  }

  static void RecordDeallocation() {
    deallocations_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  inline static std::atomic<uint64_t> allocations_{0};
  inline static std::atomic<uint64_t> deallocations_{0};
};

}  // namespace hkpr

#endif  // HKPR_COMMON_MEM_TRACKER_H_
