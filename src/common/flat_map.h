// Open-addressing hash containers keyed by 32-bit node ids.
//
// The HKPR estimators keep their reserve/result vectors (SparseVector), and
// the PPR and local-clustering baselines their sparse node->value state, in
// these maps; keys are dense small integers. (Per-hop residues are not
// here: they live in hkpr/residue.h's entry arrays and dense push frontier.)
// These containers use linear probing over a power-of-two table with a
// strong multiplicative hash, no tombstones (the algorithms never erase
// single keys), and contiguous storage for cache-friendly iteration over
// entries.
//
// They deliberately support only the operations the algorithms need:
// insert-or-accumulate, lookup, iteration, clear.

#ifndef HKPR_COMMON_FLAT_MAP_H_
#define HKPR_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace hkpr {

namespace internal {

/// Fibonacci-style multiplicative hash for 32-bit keys.
inline uint64_t HashU32(uint32_t key) {
  uint64_t x = key;
  x *= 0x9E3779B97F4A7C15ULL;
  x ^= x >> 29;
  return x;
}

}  // namespace internal

/// A node-id -> T map with open addressing and insertion-order entry storage.
///
/// Entries are stored contiguously in insertion order, so iterating visits
/// each key exactly once in a cache-friendly sweep; the probe table stores
/// indices into the entry array. Average O(1) insert/lookup.
template <typename T>
class FlatMap {
 public:
  struct Entry {
    uint32_t key;
    T value;
  };

  FlatMap() = default;

  /// Pre-sizes the table for roughly `n` keys.
  explicit FlatMap(size_t n) { Reserve(n); }

  /// Ensures capacity for `n` keys without rehashing during growth to n.
  void Reserve(size_t n) {
    entries_.reserve(n);
    size_t needed = NextPow2(n * 2 + kMinSlots);
    if (needed > slots_.size()) Rehash(needed);
  }

  /// Returns a mutable reference to the value for `key`, default-constructing
  /// it on first access.
  T& operator[](uint32_t key) {
    if (slots_.empty()) Rehash(kMinSlots);
    size_t idx = FindSlot(key);
    if (slots_[idx] != kEmpty) return entries_[slots_[idx]].value;
    if ((entries_.size() + 1) * 2 > slots_.size()) {
      Rehash(slots_.size() * 2);
      idx = FindSlot(key);
    }
    slots_[idx] = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{key, T{}});
    return entries_.back().value;
  }

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  const T* Find(uint32_t key) const {
    if (slots_.empty()) return nullptr;
    size_t idx = FindSlot(key);
    if (slots_[idx] == kEmpty) return nullptr;
    return &entries_[slots_[idx]].value;
  }

  /// Returns the value for `key` or `fallback` if absent.
  T GetOr(uint32_t key, T fallback) const {
    const T* v = Find(key);
    return v ? *v : fallback;
  }

  bool Contains(uint32_t key) const { return Find(key) != nullptr; }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Removes all entries but keeps allocated capacity.
  ///
  /// When few slots are touched relative to the table size, clears in
  /// O(touched) by emptying only the occupied slots instead of refilling the
  /// whole probe table — this is what makes reused query workspaces cheap to
  /// reset between queries. Entries are removed in reverse insertion order:
  /// with linear probing and no deletions, every slot a key probed over was
  /// occupied by an *earlier* insertion, so removing latest-first never
  /// breaks the probe chain of a key that is still present.
  void Clear() {
    // Empty map: every slot is already kEmpty (the only slot writers are
    // insertion and this function), so there is nothing to wipe. This makes
    // per-query resets of warmed-but-unused maps free.
    if (entries_.empty()) return;
    if (entries_.size() * 8 <= slots_.size()) {
      for (size_t i = entries_.size(); i-- > 0;) {
        slots_[FindSlot(entries_[i].key)] = kEmpty;
      }
    } else {
      std::fill(slots_.begin(), slots_.end(), kEmpty);
    }
    entries_.clear();
  }

  /// Insertion-ordered entries. Stable unless the map is mutated.
  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<Entry>& mutable_entries() { return entries_; }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  /// Approximate heap bytes held by this container (for memory accounting).
  size_t MemoryBytes() const {
    return entries_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr size_t kMinSlots = 16;

  static size_t NextPow2(size_t n) {
    size_t p = kMinSlots;
    while (p < n) p <<= 1;
    return p;
  }

  size_t FindSlot(uint32_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t idx = internal::HashU32(key) & mask;
    while (slots_[idx] != kEmpty && entries_[slots_[idx]].key != key) {
      idx = (idx + 1) & mask;
    }
    return idx;
  }

  void Rehash(size_t new_slots) {
    slots_.assign(new_slots, kEmpty);
    const size_t mask = slots_.size() - 1;
    for (uint32_t i = 0; i < entries_.size(); ++i) {
      size_t idx = internal::HashU32(entries_[i].key) & mask;
      while (slots_[idx] != kEmpty) idx = (idx + 1) & mask;
      slots_[idx] = i;
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;
};

/// A set of 32-bit node ids with the same design as FlatMap.
class FlatSet {
 public:
  FlatSet() = default;
  explicit FlatSet(size_t n) { map_.Reserve(n); }

  void Reserve(size_t n) { map_.Reserve(n); }

  /// Inserts `key`; returns true if newly inserted.
  bool Insert(uint32_t key) {
    size_t before = map_.size();
    map_[key] = true;
    return map_.size() != before;
  }

  bool Contains(uint32_t key) const { return map_.Contains(key); }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.Clear(); }

  /// Iterates inserted keys in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& e : map_.entries()) fn(e.key);
  }

  size_t MemoryBytes() const { return map_.MemoryBytes(); }

 private:
  FlatMap<bool> map_;
};

}  // namespace hkpr

#endif  // HKPR_COMMON_FLAT_MAP_H_
