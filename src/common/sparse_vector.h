// Sparse node->double vector used for HKPR estimates and push reserves.

#ifndef HKPR_COMMON_SPARSE_VECTOR_H_
#define HKPR_COMMON_SPARSE_VECTOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"

namespace hkpr {

/// A sparse vector over node ids with O(1) accumulate/lookup and
/// insertion-order iteration.
///
/// HKPR estimators produce one of these per query. Beyond the raw per-node
/// entries, a `degree_offset` scalar can be attached: TEA+ adds
/// `eps_r*delta/2 * d(v)` to every node (Lines 18-19 of Algorithm 5), which
/// the paper notes can be represented in O(1) by recording the scalar and
/// applying it on access. `ValueWithOffset(v, d)` folds it in.
class SparseVector {
 public:
  SparseVector() = default;
  explicit SparseVector(size_t expected_nnz) : map_(expected_nnz) {}

  /// Pre-sizes the backing map for roughly `expected_nnz` entries; a later
  /// Clear() keeps the capacity, so reused vectors stop allocating once they
  /// have seen their steady-state support size.
  void Reserve(size_t expected_nnz) { map_.Reserve(expected_nnz); }

  /// Adds `delta` to entry `v`.
  void Add(uint32_t v, double delta) { map_[v] += delta; }

  /// Sets entry `v` to `value`.
  void Set(uint32_t v, double value) { map_[v] = value; }

  /// Returns the stored (offset-free) value of entry `v` (0 if absent).
  double Get(uint32_t v) const { return map_.GetOr(v, 0.0); }

  /// Returns the value of entry `v` including the per-degree offset, where
  /// `degree` is the degree of `v` in the graph this vector refers to.
  double ValueWithOffset(uint32_t v, uint32_t degree) const {
    return Get(v) + degree_offset_ * degree;
  }

  /// Scalar added to every node, in units of the node's degree.
  double degree_offset() const { return degree_offset_; }
  void set_degree_offset(double offset) { degree_offset_ = offset; }

  size_t nnz() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() {
    map_.Clear();
    degree_offset_ = 0.0;
  }

  /// Multiplies every stored entry and the degree offset by `factor`, in
  /// place and allocation-free (final e^{-t} scaling of workspace-resident
  /// results).
  void Scale(double factor) {
    for (auto& e : map_.mutable_entries()) e.value *= factor;
    degree_offset_ *= factor;
  }

  /// Sum of all stored entries (excluding the degree offset).
  double Sum() const {
    double s = 0.0;
    for (const auto& e : map_.entries()) s += e.value;
    return s;
  }

  const std::vector<FlatMap<double>::Entry>& entries() const {
    return map_.entries();
  }

  /// A copy whose backing table is sized to this vector's support instead
  /// of inheriting the source's (possibly much larger, warmed-up) capacity.
  /// Use when retaining results produced inside a reused workspace.
  SparseVector CompactCopy() const {
    SparseVector out(nnz());
    for (const auto& e : map_.entries()) out.map_[e.key] = e.value;
    out.degree_offset_ = degree_offset_;
    return out;
  }

  /// Entries sorted by key, useful for deterministic output and comparisons.
  std::vector<FlatMap<double>::Entry> SortedEntries() const {
    auto out = map_.entries();
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return out;
  }

  size_t MemoryBytes() const { return map_.MemoryBytes(); }

 private:
  FlatMap<double> map_;
  double degree_offset_ = 0.0;
};

}  // namespace hkpr

#endif  // HKPR_COMMON_SPARSE_VECTOR_H_
