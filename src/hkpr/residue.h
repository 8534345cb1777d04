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
//    residue: a dense value array over all nodes of the graph (8 bytes per
//    node), zero everywhere the open hop has not touched.
//
// Residue only ever flows from hop k to hop k+1, so every algorithm drains
// hop k from its entry array while adding into the frontier, which holds
// hop k+1. An add is one read and one write of the node's value: every add
// is strictly positive, so the add that finds the value 0.0 is the node's
// first touch, and it appends the node to hop k+1's entry array. Sealing
// copies the frontier's values into that entry array and clears only the
// touched slots, in O(touched). The entries, their order, their value bits
// and the hop sums are thereby exactly those of a node-keyed map iterated
// in insertion order, the layout this table replaced. Entry arrays are only
// valid for hops that are not the open frontier: the push routines seal
// before they return.
//
// The push routines seal with SealFrontier(graph, threshold, push_list),
// which visits every touched entry anyway and so also returns the hop's
// max r/d(v), the hop's term of Inequality (11), and lists the entries the
// next drain pushes. A drain then walks that list instead of re-testing
// every entry of its hop.
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
  /// a graph of `num_nodes` nodes. The dense array grows to `num_nodes` on
  /// first use and when a larger graph arrives.
  void OpenFrontier(uint32_t k, size_t num_nodes) {
    SealFrontier();
    HKPR_DCHECK(k < num_hops_ && hops_[k].empty());
    if (frontier_.size() < num_nodes) frontier_.resize(num_nodes, 0.0);
    frontier_hop_ = k;
  }

  /// The push operation's inner loop: adds `share` to r_k[u] at the
  /// frontier hop k for each u of `nodes`, in order, appending first
  /// touches to hop k's entries and adding to HopSum(k); calls
  /// on_add(u, before, after) with r_k[u] before and after each add, so a
  /// node's first touch is the call whose `before` is 0.0. A zero share
  /// moves no residue and is skipped, which keeps every add strictly
  /// positive; it arises only from a reserve fraction that rounds to 1, as
  /// at hop 0 for t below about 1e-16, or from underflow. The array and the
  /// running hop sum are held in locals so that they stay in registers
  /// across the stores.
  template <typename OnAdd>
  void SpreadToFrontier(std::span<const NodeId> nodes, double share,
                        OnAdd&& on_add) {
    HKPR_DCHECK(frontier_hop_ != kNoHop);
    HKPR_DCHECK(share >= 0.0);
    if (share == 0.0) return;
    double* const value = frontier_.data();
    std::vector<Entry>& hop = hops_[frontier_hop_];
    double sum = hop_sum_[frontier_hop_];
    for (const NodeId u : nodes) {
      const double before = value[u];
      if (before == 0.0) hop.push_back(Entry{u, 0.0});
      const double after = before + share;
      value[u] = after;
      sum += share;
      on_add(u, before, after);
    }
    hop_sum_[frontier_hop_] = sum;
  }

  /// Adds `delta` > 0 to r_k[v] at the frontier hop k and to HopSum(k);
  /// returns the new value.
  double AddToFrontier(NodeId v, double delta) {
    double result = 0.0;
    SpreadToFrontier({&v, 1}, delta,
                     [&result](NodeId, double, double after) {
                       result = after;
                     });
    return result;
  }

  /// Writes the frontier's values into its hop's entries and clears the
  /// touched slots. No-op when no frontier is open.
  void SealFrontier() {
    if (frontier_hop_ == kNoHop) return;
    for (Entry& e : hops_[frontier_hop_]) {
      e.value = frontier_[e.key];
      frontier_[e.key] = 0.0;
    }
    frontier_hop_ = kNoHop;
  }

  /// Seals the open frontier as SealFrontier() does, and in the same pass
  /// decides the sealed hop's drain: `push_list` receives the positions, in
  /// entry order, of the entries with d(v) > 0 and r > threshold * d(v),
  /// the push condition of HK-Push and HK-Push+. Returns the hop's
  /// max r/d(v) over nodes with d(v) > 0 (0 for an empty hop).
  double SealFrontier(const Graph& graph, double threshold,
                      std::vector<uint32_t>& push_list) {
    HKPR_DCHECK(frontier_hop_ != kNoHop);
    push_list.clear();
    std::vector<Entry>& hop = hops_[frontier_hop_];
    double max_norm = 0.0;
    for (size_t i = 0; i < hop.size(); ++i) {
      Entry& e = hop[i];
      const double r = frontier_[e.key];
      e.value = r;
      frontier_[e.key] = 0.0;
      const uint32_t d = graph.Degree(e.key);
      if (d == 0) continue;
      const double norm = r / d;
      if (norm > max_norm) max_norm = norm;
      if (r > threshold * d) push_list.push_back(static_cast<uint32_t>(i));
    }
    frontier_hop_ = kNoHop;
    return max_norm;
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

  /// Heap bytes held: entry arrays, hop sums and the frontier.
  size_t MemoryBytes() const {
    size_t b = hop_sum_.capacity() * sizeof(double) +
               frontier_.capacity() * sizeof(double);
    for (const auto& hop : hops_) b += hop.capacity() * sizeof(Entry);
    return b;
  }

 private:
  static constexpr uint32_t kNoHop = 0xFFFFFFFFu;

  std::vector<std::vector<Entry>> hops_;  // may exceed num_hops_ after Reset
  std::vector<double> hop_sum_;
  size_t num_hops_ = 1;
  // Node-indexed frontier: 0.0 everywhere except at the nodes the open hop
  // has touched.
  std::vector<double> frontier_;
  uint32_t frontier_hop_ = kNoHop;
};

}  // namespace hkpr

#endif  // HKPR_HKPR_RESIDUE_H_
