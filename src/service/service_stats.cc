#include "service/service_stats.h"

#include <bit>
#include <cmath>

namespace hkpr {

void LatencyHistogram::Record(double seconds) {
  uint64_t us = 0;
  if (seconds > 0.0) {
    us = static_cast<uint64_t>(std::llround(seconds * 1e6));
  }
  size_t bucket = std::bit_width(us);  // 0 -> 0, [2^(i-1), 2^i) -> i
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

double LatencyPercentileMs(
    const std::array<uint64_t, LatencyHistogram::kBuckets>& buckets,
    double q) {
  uint64_t total = 0;
  for (const uint64_t count : buckets) total += count;
  if (total == 0) return 0.0;
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= target && target > 0) {
      // Upper bound of bucket i in microseconds: 2^i - 1 (bucket 0: < 1us).
      const double upper_us =
          i == 0 ? 1.0 : static_cast<double>((uint64_t{1} << i) - 1);
      return upper_us / 1000.0;
    }
  }
  return 0.0;
}

std::array<uint64_t, LatencyHistogram::kBuckets>
LatencyHistogram::BucketCounts() const {
  std::array<uint64_t, kBuckets> counts;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double LatencyHistogram::PercentileMs(double q) const {
  return LatencyPercentileMs(BucketCounts(), q);
}

uint64_t LatencyHistogram::TotalCount() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

void AddStageSnapshot(StageLatencySnapshot& into,
                      const StageLatencySnapshot& from) {
  into.count += from.count;
  into.total_us += from.total_us;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    into.buckets[i] += from.buckets[i];
  }
  into.p50_ms = LatencyPercentileMs(into.buckets, 0.50);
  into.p95_ms = LatencyPercentileMs(into.buckets, 0.95);
  into.p99_ms = LatencyPercentileMs(into.buckets, 0.99);
}

void AddSnapshotCounters(ServiceStatsSnapshot& into,
                         const ServiceStatsSnapshot& from) {
  into.submitted += from.submitted;
  into.rejected += from.rejected;
  into.invalid_plans += from.invalid_plans;
  into.completed += from.completed;
  into.cancelled += from.cancelled;
  into.expired += from.expired;
  into.cache_hits += from.cache_hits;
  into.cache_misses += from.cache_misses;
  into.coalesced += from.coalesced;
  into.computed += from.computed;
  into.stolen += from.stolen;
  into.latency_count += from.latency_count;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    into.latency_buckets[i] += from.latency_buckets[i];
  }
  into.stage_tracing = into.stage_tracing || from.stage_tracing;
  AddStageSnapshot(into.queue_wait, from.queue_wait);
  AddStageSnapshot(into.cache_lookup, from.cache_lookup);
  AddStageSnapshot(into.compute, from.compute);
  into.traced_total_us += from.traced_total_us;
}

void RecomputeSnapshotPercentiles(ServiceStatsSnapshot& snap) {
  snap.latency_p50_ms = LatencyPercentileMs(snap.latency_buckets, 0.50);
  snap.latency_p95_ms = LatencyPercentileMs(snap.latency_buckets, 0.95);
  snap.latency_p99_ms = LatencyPercentileMs(snap.latency_buckets, 0.99);
}

ServiceStatsSnapshot ServiceStats::TakeSnapshot() const {
  ServiceStatsSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.invalid_plans = invalid_plans_.load(std::memory_order_relaxed);
  snap.completed = completed_.load(std::memory_order_relaxed);
  snap.cancelled = cancelled_.load(std::memory_order_relaxed);
  snap.expired = expired_.load(std::memory_order_relaxed);
  snap.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snap.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  snap.coalesced = coalesced_.load(std::memory_order_relaxed);
  snap.computed = computed_.load(std::memory_order_relaxed);
  snap.stolen = stolen_.load(std::memory_order_relaxed);
  // Percentiles derive from the same bucket copy that ships in the
  // snapshot, so the two can never disagree.
  snap.latency_buckets = latency_.BucketCounts();
  for (const uint64_t count : snap.latency_buckets) {
    snap.latency_count += count;
  }
  snap.latency_p50_ms = LatencyPercentileMs(snap.latency_buckets, 0.50);
  snap.latency_p95_ms = LatencyPercentileMs(snap.latency_buckets, 0.95);
  snap.latency_p99_ms = LatencyPercentileMs(snap.latency_buckets, 0.99);
  return snap;
}

}  // namespace hkpr
