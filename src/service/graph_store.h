// Multi-graph registry with versioned, atomically hot-swappable snapshots.
//
// A serving process that fronts many graphs needs one invariant above all:
// a query that started on graph version v keeps reading version v — bit for
// bit — no matter how many times the graph is republished while the query
// runs. GraphStore provides that invariant by holding each named graph as
// an immutable snapshot (`shared_ptr<const Graph>` + a store-wide
// monotonically increasing version) that Publish() swaps in whole.
//
// One shared_mutex guards the name -> snapshot map. Get() copies the
// snapshot pointer under the shared (read) lock; Publish() and Remove()
// hold the exclusive lock only for the pointer swap: the new graph is
// built before they take it, and the replaced snapshot is released after
// they drop it. The returned GraphSnapshot
// *owns* the graph: in-flight queries that resolved a snapshot never touch
// the store again — no locks, no version checks — and the old graph's
// memory is reclaimed exactly when the last in-flight query drops its
// reference. Publish() and Remove() can therefore never invalidate memory
// a query is reading.
//
// Versions are assigned from one store-wide counter, so every publish of
// every graph gets a distinct, strictly increasing version. Serving layers
// fold the version into their cache keys (see ResultCacheKey), which makes
// entries computed on a replaced snapshot unreachable the moment the swap
// happens — the cache-version guarantee is structural, not advisory.

#ifndef HKPR_SERVICE_GRAPH_STORE_H_
#define HKPR_SERVICE_GRAPH_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace hkpr {

/// An owning view of one published graph version. Copyable and cheap to
/// pass around; the graph stays alive for as long as any snapshot (or the
/// store) references it.
struct GraphSnapshot {
  std::shared_ptr<const Graph> graph;
  /// The store-wide version assigned at Publish() time; 0 only for the
  /// empty snapshot (unknown graph) and for non-store graphs wrapped by
  /// the legacy borrowing constructors.
  uint64_t version = 0;

  explicit operator bool() const { return graph != nullptr; }

  /// Wraps a caller-owned graph that is NOT managed by any store. The
  /// returned snapshot does not own the graph — the caller must keep it
  /// alive — and carries version 0. Exists for the legacy single-graph
  /// entry points (AsyncQueryService over a borrowed `const Graph&`).
  static GraphSnapshot Borrowed(const Graph& graph) {
    return {std::shared_ptr<const Graph>(std::shared_ptr<const void>(),
                                         &graph),
            0};
  }
};

/// One row of GraphStore::List().
struct GraphInfo {
  std::string name;
  uint64_t version = 0;
  uint32_t nodes = 0;
  uint64_t edges = 0;
};

/// Registry of named graphs, each held as an immutable versioned snapshot.
/// All methods are thread-safe; Get() never blocks behind a Publish()'s
/// graph construction or a replaced graph's destruction (both happen
/// outside the lock).
class GraphStore {
 public:
  GraphStore() = default;
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Publishes `graph` under `name`, creating the entry or atomically
  /// replacing the current snapshot. Returns the assigned version
  /// (store-wide monotone). Concurrent publishes to one name are ordered
  /// by version: the slot only ever moves to a higher version, so a racing
  /// older publish can never clobber a newer one. In-flight queries on the
  /// replaced snapshot keep their reference and finish on the old graph.
  uint64_t Publish(std::string_view name, Graph graph);

  /// The current snapshot of `name`, or an empty snapshot (version 0,
  /// null graph) when the name is unknown. A shared lock, one map find and
  /// one reference-count increment.
  GraphSnapshot Get(std::string_view name) const;

  /// Removes `name` from the store. Outstanding snapshots stay valid (the
  /// graph dies with its last reference). Returns false if unknown.
  bool Remove(std::string_view name);

  bool Contains(std::string_view name) const;

  /// Names with their current version and size, sorted by name.
  std::vector<GraphInfo> List() const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Number of registered graphs.
  size_t Size() const;

  /// The most recently assigned version, 0 if nothing was ever published.
  uint64_t latest_version() const {
    return next_version_.load(std::memory_order_acquire) - 1;
  }

 private:
  /// A graph and its version, allocated together so one pointer swap
  /// replaces both — a reader can never pair the new graph with the old
  /// version or vice versa (no torn reads).
  struct Versioned {
    Graph graph;
    uint64_t version;
  };

  /// Guards `current_`: readers copy a snapshot pointer under the shared
  /// lock, Publish() and Remove() swap one under the exclusive lock.
  mutable std::shared_mutex mu_;
  /// Each name's current snapshot; never null.
  std::map<std::string, std::shared_ptr<const Versioned>, std::less<>>
      current_;
  std::atomic<uint64_t> next_version_{1};
};

}  // namespace hkpr

#endif  // HKPR_SERVICE_GRAPH_STORE_H_
