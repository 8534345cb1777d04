// Cross-query result cache with single-flight deduplication.
//
// Real local-clustering traffic is skewed and repetitive (hot seeds get
// queried over and over), so a serving frontend wins far more throughput
// from remembering completed estimates than from recomputing them faster.
// ResultCache is a sharded LRU map from (graph version, seed, resolved
// QueryPlan — backend id + heat-kernel/accuracy parameters) to a completed
// SparseVector estimate. Because the key is the *resolved plan*, two
// distinct plans (different backend, or any parameter override) can never
// serve each other's entries, while the same plan reached via routing, an
// explicit request override, or the service default shares one entry.
//
// Concurrent requests for the same key are deduplicated single-flight
// style: the first requester becomes the *leader* and computes; everyone
// else receives a shared_future tied to the leader's promise and waits for
// that one computation instead of starting their own. A cache hit therefore
// never recomputes, and N simultaneous requests for one cold key cost
// exactly one computation.
//
// FindCompleted() is the read-only half of the lookup: it returns a ready
// value and registers nothing, so a serving layer can answer hits before
// queueing and leave misses and in-flight keys to LookupOrStartCompute().
//
// Invalidate() drops every entry. It is not what keeps estimates of one
// graph snapshot from answering queries on another: the key's
// graph_version does that, since the store gives every snapshot its own
// version. A serving layer invalidates after a snapshot swap only to free
// entries that can never hit again.

#ifndef HKPR_SERVICE_RESULT_CACHE_H_
#define HKPR_SERVICE_RESULT_CACHE_H_

#include <bit>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "common/sparse_vector.h"
#include "graph/graph.h"

namespace hkpr {

/// Identity of one HKPR computation: the seed node, the resolved plan that
/// ran it (backend id + heat-kernel/accuracy parameters), and the version
/// of the graph snapshot it ran on. Two keys are equal only when every
/// field matches bit-for-bit, so a cached value is only ever returned for
/// the exact computation that produced it.
struct ResultCacheKey {
  uint64_t graph_version = 0;
  NodeId seed = 0;
  /// The EstimatorRegistry's stable id for the backend that computes this
  /// key (StableBackendId(name) in hkpr/backend.h — a pure function of the
  /// backend name, collision-checked at registration). Distinct backends
  /// therefore can never share a cache entry, even with identical
  /// parameters.
  uint32_t backend_id = 0;
  double t = 0.0;
  double eps_r = 0.0;
  double delta = 0.0;
  double p_f = 0.0;

  /// Bitwise equality on the doubles, matching KeyHash (which hashes bit
  /// patterns) and the exact-computation contract: value equality would
  /// conflate 0.0 with -0.0 (equal values, different hashes — breaking the
  /// map's Hash/KeyEqual requirement) and make a NaN key unequal to itself.
  bool operator==(const ResultCacheKey& other) const {
    return graph_version == other.graph_version && seed == other.seed &&
           backend_id == other.backend_id &&
           std::bit_cast<uint64_t>(t) == std::bit_cast<uint64_t>(other.t) &&
           std::bit_cast<uint64_t>(eps_r) ==
               std::bit_cast<uint64_t>(other.eps_r) &&
           std::bit_cast<uint64_t>(delta) ==
               std::bit_cast<uint64_t>(other.delta) &&
           std::bit_cast<uint64_t>(p_f) == std::bit_cast<uint64_t>(other.p_f);
  }
};

/// Completed estimates are shared immutably between the cache, in-flight
/// responses, and callers that hold onto results.
using CachedEstimate = std::shared_ptr<const SparseVector>;

/// Sharded LRU cache of completed estimates with single-flight dedup.
/// All methods are thread-safe; locking is per shard.
class ResultCache {
 public:
  /// `capacity` bounds the total number of entries (split evenly across
  /// `num_shards`, at least one per shard). Must be positive — a capacity
  /// of zero means "no cache", which callers express by not constructing
  /// one.
  explicit ResultCache(size_t capacity, uint32_t num_shards = 8);
  ~ResultCache();  // out-of-line: Shard is an incomplete type here

  enum class Outcome {
    kHit,       ///< completed value returned
    kInFlight,  ///< another requester is computing; wait on `pending`
    kMiss,      ///< caller became the leader; compute, then Complete()
  };

  struct Lookup {
    Outcome outcome = Outcome::kMiss;
    CachedEstimate value;                        // set when kHit
    std::shared_future<CachedEstimate> pending;  // set when kInFlight
    std::shared_ptr<std::promise<CachedEstimate>> leader;  // set when kMiss
  };

  /// Looks up `key`. On a miss the caller is registered as the in-flight
  /// leader and MUST eventually call Complete() with the returned `leader`
  /// promise — followers block on it.
  Lookup LookupOrStartCompute(const ResultCacheKey& key);

  /// The completed value for `key`, moved to the front of the LRU order;
  /// null on a miss or while the key is in flight, in which case nothing
  /// is registered (no leader, no follower). This lets a submitter answer
  /// a hit on its own thread and hand everything else to
  /// LookupOrStartCompute(), which keeps the single-flight contract.
  CachedEstimate FindCompleted(const ResultCacheKey& key);

  /// Publishes the leader's computed value: fulfills the promise (waking
  /// any coalesced followers) and marks the entry completed in LRU order.
  /// Safe to call after an Invalidate() raced away the entry — followers
  /// still receive the value through their futures.
  void Complete(const ResultCacheKey& key,
                const std::shared_ptr<std::promise<CachedEstimate>>& leader,
                CachedEstimate value);

  /// Drops every entry. In-flight leaders still wake their followers, but
  /// their values are not stored.
  void Invalidate();

  /// Completed + in-flight entries across all shards.
  size_t size() const;

  size_t capacity() const { return shard_capacity_ * shards_.size(); }

 private:
  struct KeyHash {
    size_t operator()(const ResultCacheKey& key) const;
  };

  struct Entry {
    std::shared_future<CachedEstimate> future;
    std::shared_ptr<std::promise<CachedEstimate>> promise;  // null once ready
    CachedEstimate value;  // set once ready
    bool ready = false;
    std::list<ResultCacheKey>::iterator lru_it;
  };

  struct Shard;

  Shard& ShardFor(const ResultCacheKey& key);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_capacity_;
};

}  // namespace hkpr

#endif  // HKPR_SERVICE_RESULT_CACHE_H_
