#include "service/result_cache.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace hkpr {

namespace {

/// SplitMix64 finalizer — the same mixer the RNG seeding uses; strong
/// enough that shard selection and the map's buckets can share one hash.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t HashKey(const ResultCacheKey& key) {
  uint64_t h = Mix(key.graph_version + 0x9E3779B97F4A7C15ULL);
  h = Mix(h ^ ((static_cast<uint64_t>(key.seed) << 32) | key.backend_id));
  h = Mix(h ^ std::bit_cast<uint64_t>(key.t));
  h = Mix(h ^ std::bit_cast<uint64_t>(key.eps_r));
  h = Mix(h ^ std::bit_cast<uint64_t>(key.delta));
  h = Mix(h ^ std::bit_cast<uint64_t>(key.p_f));
  return h;
}

}  // namespace

size_t ResultCache::KeyHash::operator()(const ResultCacheKey& key) const {
  return static_cast<size_t>(HashKey(key));
}

struct ResultCache::Shard {
  std::mutex mu;
  std::unordered_map<ResultCacheKey, Entry, KeyHash> map;
  std::list<ResultCacheKey> lru;  // front = most recently used
};

ResultCache::ResultCache(size_t capacity, uint32_t num_shards) {
  HKPR_CHECK(capacity > 0) << "use no cache instead of a zero-capacity one";
  if (num_shards == 0) num_shards = 1;
  // No point in more shards than capacity: every shard holds >= 1 entry.
  num_shards = static_cast<uint32_t>(
      std::min<size_t>(num_shards, capacity));
  shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::~ResultCache() = default;

ResultCache::Shard& ResultCache::ShardFor(const ResultCacheKey& key) {
  // Reuse the high bits so the shard index stays independent of the map's
  // bucket choice (which consumes the low bits).
  return *shards_[(HashKey(key) >> 48) % shards_.size()];
}

ResultCache::Lookup ResultCache::LookupOrStartCompute(
    const ResultCacheKey& key) {
  Shard& shard = ShardFor(key);
  Lookup result;
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    Entry& entry = it->second;
    shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
    if (entry.ready) {
      result.outcome = Outcome::kHit;
      result.value = entry.value;
    } else {
      result.outcome = Outcome::kInFlight;
      result.pending = entry.future;
    }
    return result;
  }

  // Miss: register the caller as the in-flight leader.
  result.outcome = Outcome::kMiss;
  result.leader = std::make_shared<std::promise<CachedEstimate>>();
  Entry entry;
  entry.promise = result.leader;
  entry.future = result.leader->get_future().share();
  shard.lru.push_front(key);
  entry.lru_it = shard.lru.begin();
  shard.map.emplace(key, std::move(entry));

  // Evict completed entries beyond capacity, least recently used first.
  // In-flight entries are skipped: their leaders still need somewhere to
  // publish, and followers hold their futures (so the shard can transiently
  // exceed capacity while everything in it is being computed).
  auto lru_it = shard.lru.end();
  while (shard.map.size() > shard_capacity_ && lru_it != shard.lru.begin()) {
    --lru_it;
    auto victim = shard.map.find(*lru_it);
    if (victim != shard.map.end() && victim->second.ready) {
      lru_it = shard.lru.erase(lru_it);
      shard.map.erase(victim);
    }
  }
  return result;
}

CachedEstimate ResultCache::FindCompleted(const ResultCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || !it->second.ready) return nullptr;
  Entry& entry = it->second;
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
  return entry.value;
}

void ResultCache::Complete(
    const ResultCacheKey& key,
    const std::shared_ptr<std::promise<CachedEstimate>>& leader,
    CachedEstimate value) {
  HKPR_CHECK(leader != nullptr);
  HKPR_CHECK(value != nullptr);
  // Wake coalesced followers first — they hold copies of the shared future,
  // so this works even if Invalidate() already dropped the entry.
  leader->set_value(value);

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  // The entry may be gone (Invalidate raced) or may belong to a different
  // leader (Invalidate + re-miss raced); only the owning leader publishes.
  if (it == shard.map.end() || it->second.promise != leader) return;
  Entry& entry = it->second;
  entry.ready = true;
  entry.value = std::move(value);
  entry.promise.reset();
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
}

void ResultCache::Invalidate() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // In-flight promises survive inside their leaders' hands; dropping the
    // entries only forgets the results.
    shard->map.clear();
    shard->lru.clear();
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

}  // namespace hkpr
