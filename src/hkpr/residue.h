// Multi-hop residue storage for HK-Push / HK-Push+ and hk-relax.
//
// Unlike personalized-PageRank push methods (FORA et al.), heat-kernel push
// must keep residues generated at different hop counts separate, because the
// conditional stopping distribution h_u^(k) depends on k (the
// non-Markovianness discussed in Section 6). ResidueTable keeps them in two
// parts, plus the running aggregates TEA/TEA+ need: per-hop sums (for beta_k
// and alpha) and the total.
//
//  - One entry array per hop: (node, residue) pairs in first-touch order,
//    the order in which the push first added residue to that node at that
//    hop. Entries that are pushed out are zeroed in place, never removed.
//  - One node-indexed frontier for the single hop currently receiving
//    residue: a dense value array and a dense first-touch position array
//    over all nodes of the graph (12 bytes per node).
//
// Residue only ever flows from hop k to hop k+1, so every algorithm drains
// hop k from its entry array while adding into the frontier, which holds
// hop k+1. An add is then two direct array accesses instead of a hash
// probe. SealFrontier() copies the frontier's values into its hop's entry
// array, whose first-touch order was recorded as the adds arrived, and
// clears only the touched slots, in O(touched). The entries, their order,
// their value bits and the hop sums are thereby exactly those of a
// node-keyed map iterated in insertion order, the layout this table
// replaced. Entry arrays are only valid for hops that are not the open
// frontier: the push routines seal before they return.
//
// A table can be Reset() and reused across queries: hop storage only ever
// grows, the entry arrays keep their capacity through clears, and the
// frontier is sized to the largest graph it has served and only grows, so a
// steady-state query sequence performs no heap allocations here.

#ifndef HKPR_HKPR_RESIDUE_H_
#define HKPR_HKPR_RESIDUE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "graph/graph.h"

namespace hkpr {

/// Residue vectors r_s^(0..max_hop) with maintained hop sums.
class ResidueTable {
 public:
  /// One residue r_k[key] of a hop.
  struct Entry {
    NodeId key;
    double value;
  };

  /// Creates empty residue vectors for hops 0..max_hop inclusive.
  explicit ResidueTable(uint32_t max_hop) { Reset(max_hop); }

  /// Clears the table, including an unsealed frontier, and re-dimensions it
  /// for hops 0..max_hop inclusive. Storage is retained (and only grows), so
  /// repeated Reset/fill cycles on one table are allocation-free once
  /// capacities have warmed up.
  void Reset(uint32_t max_hop) {
    SealFrontier();
    const size_t needed = static_cast<size_t>(max_hop) + 1;
    if (hops_.size() < needed) hops_.resize(needed);
    num_hops_ = needed;
    for (auto& hop : hops_) hop.clear();
    hop_sum_.assign(hops_.size(), 0.0);
  }

  uint32_t max_hop() const { return static_cast<uint32_t>(num_hops_ - 1); }

  /// Hop k's entries in first-touch order, zeroed entries included.
  const std::vector<Entry>& Hop(uint32_t k) const { return hops_[k]; }
  /// Mutable entries; call RecomputeSums() after changing values directly
  /// (e.g. TEA+'s residue reduction).
  std::vector<Entry>& MutableHop(uint32_t k) { return hops_[k]; }

  /// Seals any open frontier, then makes the empty hop k the frontier, over
  /// a graph of `num_nodes` nodes. The dense arrays grow to `num_nodes` on
  /// first use and when a larger graph arrives.
  void OpenFrontier(uint32_t k, size_t num_nodes) {
    SealFrontier();
    HKPR_DCHECK(k < num_hops_ && hops_[k].empty());
    if (frontier_value_.size() < num_nodes) {
      frontier_value_.resize(num_nodes, 0.0);
      frontier_pos_.resize(num_nodes, kUntouched);
    }
    frontier_hop_ = k;
  }

  /// The push operation's inner loop: adds `share` to r_k[u] at the
  /// frontier hop k for each u of `nodes`, in order, recording first
  /// touches and adding to HopSum(k); calls on_add(u, before, after) with
  /// r_k[u] before and after each add. The arrays and the running hop sum
  /// are held in locals so that they stay in registers across the stores.
  template <typename OnAdd>
  void SpreadToFrontier(std::span<const NodeId> nodes, double share,
                        OnAdd&& on_add) {
    HKPR_DCHECK(frontier_hop_ != kNoHop);
    double* const value = frontier_value_.data();
    uint32_t* const pos = frontier_pos_.data();
    std::vector<Entry>& hop = hops_[frontier_hop_];
    double sum = hop_sum_[frontier_hop_];
    for (const NodeId u : nodes) {
      if (pos[u] == kUntouched) {
        pos[u] = static_cast<uint32_t>(hop.size());
        hop.push_back(Entry{u, 0.0});
      }
      const double before = value[u];
      const double after = before + share;
      value[u] = after;
      sum += share;
      on_add(u, before, after);
    }
    hop_sum_[frontier_hop_] = sum;
  }

  /// Adds `delta` to r_k[v] at the frontier hop k and to HopSum(k); returns
  /// the new value.
  double AddToFrontier(NodeId v, double delta) {
    double result = 0.0;
    SpreadToFrontier({&v, 1}, delta,
                     [&result](NodeId, double, double after) {
                       result = after;
                     });
    return result;
  }

  /// Index of v's entry in the frontier hop's entry array; v must have been
  /// touched since the frontier opened.
  uint32_t FrontierPosition(NodeId v) const { return frontier_pos_[v]; }

  /// Writes the frontier's values into its hop's entries and clears the
  /// touched slots. No-op when no frontier is open.
  void SealFrontier() {
    if (frontier_hop_ == kNoHop) return;
    for (Entry& e : hops_[frontier_hop_]) {
      e.value = frontier_value_[e.key];
      frontier_value_[e.key] = 0.0;
      frontier_pos_[e.key] = kUntouched;
    }
    frontier_hop_ = kNoHop;
  }

  /// Zeroes hop k's i-th entry and takes its value off HopSum(k).
  void ZeroEntry(uint32_t k, size_t i) {
    Entry& e = hops_[k][i];
    hop_sum_[k] -= e.value;
    e.value = 0.0;
  }

  /// Sum of residues at hop k (maintained incrementally; see RecomputeSums
  /// for use after bulk mutation).
  double HopSum(uint32_t k) const { return hop_sum_[k]; }

  /// alpha = sum over all hops and nodes of the residues.
  double TotalSum() const {
    double s = 0.0;
    for (size_t k = 0; k < num_hops_; ++k) s += hop_sum_[k];
    return s;
  }

  /// Recomputes hop sums by scanning entries; call after mutating residues
  /// directly through MutableHop (e.g. TEA+'s residue reduction).
  void RecomputeSums() {
    for (size_t k = 0; k < num_hops_; ++k) {
      double s = 0.0;
      for (const Entry& e : hops_[k]) s += e.value;
      hop_sum_[k] = s;
    }
  }

  /// Exact sum over hops of max_v r_k[v]/d(v) — the left side of
  /// Inequality (11) / TEA+'s Line 7 test. O(total entries).
  double MaxNormalizedResidueSum(const Graph& graph) const {
    double total = 0.0;
    for (size_t k = 0; k < num_hops_; ++k) {
      double best = 0.0;
      for (const Entry& e : hops_[k]) {
        if (e.value <= 0.0) continue;
        const double norm = e.value / graph.Degree(e.key);
        if (norm > best) best = norm;
      }
      total += best;
    }
    return total;
  }

  /// Number of stored entries across hops (including zeroed ones).
  size_t TotalEntries() const {
    size_t n = 0;
    for (size_t k = 0; k < num_hops_; ++k) n += hops_[k].size();
    return n;
  }

  /// Number of entries with a strictly positive residue.
  size_t TotalNonZeros() const {
    size_t n = 0;
    for (size_t k = 0; k < num_hops_; ++k) {
      for (const Entry& e : hops_[k]) {
        if (e.value > 0.0) ++n;
      }
    }
    return n;
  }

  /// Heap bytes held: entry arrays, hop sums and the frontier arrays.
  size_t MemoryBytes() const {
    size_t b = hop_sum_.capacity() * sizeof(double) +
               frontier_value_.capacity() * sizeof(double) +
               frontier_pos_.capacity() * sizeof(uint32_t);
    for (const auto& hop : hops_) b += hop.capacity() * sizeof(Entry);
    return b;
  }

 private:
  static constexpr uint32_t kNoHop = 0xFFFFFFFFu;
  static constexpr uint32_t kUntouched = 0xFFFFFFFFu;

  std::vector<std::vector<Entry>> hops_;  // may exceed num_hops_ after Reset
  std::vector<double> hop_sum_;
  size_t num_hops_ = 1;
  // Node-indexed frontier: 0 / kUntouched everywhere except at the nodes the
  // open hop has touched.
  std::vector<double> frontier_value_;
  std::vector<uint32_t> frontier_pos_;
  uint32_t frontier_hop_ = kNoHop;
};

}  // namespace hkpr

#endif  // HKPR_HKPR_RESIDUE_H_
