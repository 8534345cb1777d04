#include "service/service_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "hkpr/backend.h"

namespace hkpr {

namespace {

using Buckets = std::array<uint64_t, LatencyHistogram::kBuckets>;

void AddBuckets(Buckets& into, const Buckets& from) {
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) into[i] += from[i];
}

void FillPercentiles(const Buckets& buckets, double& p50, double& p95,
                     double& p99) {
  p50 = LatencyPercentileMs(buckets, 0.50);
  p95 = LatencyPercentileMs(buckets, 0.95);
  p99 = LatencyPercentileMs(buckets, 0.99);
}

void FillPercentiles(CompletionStats& stats) {
  FillPercentiles(stats.latency_buckets, stats.latency_p50_ms,
                  stats.latency_p95_ms, stats.latency_p99_ms);
}

void AddCompletions(CompletionStats& into, const CompletionStats& from) {
  into.completed += from.completed;
  into.cache_hits += from.cache_hits;
  into.cache_misses += from.cache_misses;
  into.coalesced += from.coalesced;
  into.computed += from.computed;
  into.latency_count += from.latency_count;
  AddBuckets(into.latency_buckets, from.latency_buckets);
}

void AddStage(StageLatencySnapshot& into, const StageLatencySnapshot& from) {
  into.count += from.count;
  into.total_us += from.total_us;
  AddBuckets(into.buckets, from.buckets);
  FillPercentiles(into.buckets, into.p50_ms, into.p95_ms, into.p99_ms);
}

void SortRows(std::vector<BackendStatsSnapshot>& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const BackendStatsSnapshot& a, const BackendStatsSnapshot& b) {
              return a.backend_id < b.backend_id;
            });
}

/// Registry name for a stable backend id; the registry has no reverse
/// index, so resolve by scanning the (small, fixed) name list.
std::string BackendNameForId(uint32_t backend_id) {
  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    if (StableBackendId(name) == backend_id) return name;
  }
  return "id:" + std::to_string(backend_id);
}

}  // namespace

void LatencyHistogram::Record(double seconds) {
  RecordUs(seconds > 0.0 ? static_cast<uint64_t>(std::llround(seconds * 1e6))
                         : 0);
}

void LatencyHistogram::RecordUs(uint64_t us) {
  size_t bucket = std::bit_width(us);  // 0 -> 0, [2^(i-1), 2^i) -> i
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

double LatencyPercentileMs(const Buckets& buckets, double q) {
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

Buckets LatencyHistogram::BucketCounts() const {
  Buckets counts;
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

void MergeSnapshot(ServiceStatsSnapshot& into,
                   const ServiceStatsSnapshot& from) {
  into.submitted += from.submitted;
  into.rejected += from.rejected;
  into.invalid_plans += from.invalid_plans;
  into.cancelled += from.cancelled;
  into.expired += from.expired;
  into.stolen += from.stolen;
  into.queue_depth += from.queue_depth;
  AddCompletions(into, from);
  FillPercentiles(into);
  AddStage(into.queue_wait, from.queue_wait);
  AddStage(into.cache_lookup, from.cache_lookup);
  AddStage(into.compute, from.compute);
  into.traced_total_us += from.traced_total_us;
  for (const BackendStatsSnapshot& row : from.backends) {
    auto it = std::find_if(into.backends.begin(), into.backends.end(),
                           [&](const BackendStatsSnapshot& have) {
                             return have.backend_id == row.backend_id &&
                                    have.backend == row.backend;
                           });
    if (it == into.backends.end()) {
      into.backends.push_back(row);
      continue;
    }
    AddCompletions(*it, row);
    FillPercentiles(*it);
  }
  SortRows(into.backends);
}

ServiceStats::BackendSlot& ServiceStats::SlotFor(uint32_t backend_id) {
  const uint64_t key = static_cast<uint64_t>(backend_id) + 1;
  for (BackendSlot& slot : backend_slots_) {
    uint64_t seen = slot.key.load(std::memory_order_acquire);
    if (seen == key) return slot;
    if (seen == 0) {
      if (slot.key.compare_exchange_strong(seen, key,
                                           std::memory_order_acq_rel)) {
        return slot;
      }
      if (seen == key) return slot;  // a racer claimed it for the same id
    }
  }
  return overflow_slot_;  // cardinality bound hit
}

void ServiceStats::RecordCompleted(uint32_t backend_id, CacheOutcome outcome,
                                   const QueryTrace& trace) {
  // Each stamp as a microsecond offset from submit, clamped to be no
  // earlier than the previous stamp's offset. An unset stamp (time_point{}
  // precedes any submit) clamps to its predecessor, so a hit's or a
  // coalesced wait's compute segment is zero-width at cache_done.
  const auto offset_us = [&](QueryTrace::Clock::time_point t,
                             uint64_t floor_us) -> uint64_t {
    if (t <= trace.submit) return floor_us;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        t - trace.submit);
    return std::max(floor_us, static_cast<uint64_t>(us.count()));
  };
  const uint64_t plan_us = offset_us(trace.plan_resolved, 0);
  const uint64_t dequeue_us = offset_us(trace.dequeue, plan_us);
  const uint64_t cache_done_us = offset_us(trace.cache_done, dequeue_us);
  const uint64_t compute_begin_us =
      offset_us(trace.compute_begin, cache_done_us);
  const uint64_t compute_end_us =
      offset_us(trace.compute_end, compute_begin_us);
  const uint64_t complete_us = offset_us(trace.complete, compute_end_us);

  // The three stage segments are disjoint sub-intervals of
  // [submit, complete], so their integer-microsecond sum telescopes to
  // <= complete_us — the invariant CI asserts per bench row.
  const uint64_t queue_us = dequeue_us - plan_us;
  const uint64_t cache_us = cache_done_us - dequeue_us;
  queue_wait_.RecordUs(queue_us);
  cache_lookup_.RecordUs(cache_us);
  queue_wait_us_.fetch_add(queue_us, std::memory_order_relaxed);
  cache_lookup_us_.fetch_add(cache_us, std::memory_order_relaxed);
  // Cache-served queries (hit/coalesced) have a zero-width compute
  // segment by construction; recording them would drag the compute
  // percentiles to zero on warm traffic, so the compute stage counts
  // only queries that actually ran an estimator.
  if (outcome == CacheOutcome::kMiss || outcome == CacheOutcome::kNone) {
    const uint64_t compute_us = compute_end_us - compute_begin_us;
    compute_.RecordUs(compute_us);
    compute_us_.fetch_add(compute_us, std::memory_order_relaxed);
  }
  total_us_.fetch_add(complete_us, std::memory_order_relaxed);

  BackendSlot& slot = SlotFor(backend_id);
  Bump(slot.outcomes[static_cast<size_t>(outcome)]);
  slot.latency.RecordUs(complete_us);
}

ServiceStatsSnapshot ServiceStats::TakeSnapshot() const {
  ServiceStatsSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.invalid_plans = invalid_plans_.load(std::memory_order_relaxed);
  snap.cancelled = cancelled_.load(std::memory_order_relaxed);
  snap.expired = expired_.load(std::memory_order_relaxed);
  snap.stolen = stolen_.load(std::memory_order_relaxed);

  const auto fill_stage = [](const LatencyHistogram& hist,
                             const std::atomic<uint64_t>& sum_us,
                             StageLatencySnapshot& stage) {
    stage.buckets = hist.BucketCounts();
    for (const uint64_t count : stage.buckets) stage.count += count;
    stage.total_us = sum_us.load(std::memory_order_relaxed);
    FillPercentiles(stage.buckets, stage.p50_ms, stage.p95_ms, stage.p99_ms);
  };
  fill_stage(queue_wait_, queue_wait_us_, snap.queue_wait);
  fill_stage(cache_lookup_, cache_lookup_us_, snap.cache_lookup);
  fill_stage(compute_, compute_us_, snap.compute);
  snap.traced_total_us = total_us_.load(std::memory_order_relaxed);

  // The service-wide completion figures are the sums of the rows read
  // here, so the two always agree within one snapshot. Percentiles derive
  // from the same bucket copies that ship in the snapshot.
  const auto add_row = [&snap](const BackendSlot& slot, uint32_t backend_id,
                               const char* name) {
    BackendStatsSnapshot row;
    row.backend_id = backend_id;
    const auto outcome = [&slot](CacheOutcome o) {
      return slot.outcomes[static_cast<size_t>(o)].load(
          std::memory_order_relaxed);
    };
    row.cache_hits = outcome(CacheOutcome::kHit);
    row.coalesced = outcome(CacheOutcome::kCoalesced);
    row.cache_misses = outcome(CacheOutcome::kMiss);
    row.computed = row.cache_misses + outcome(CacheOutcome::kNone);
    row.completed = row.cache_hits + row.coalesced + row.computed;
    if (row.completed == 0) return;  // claimed but not yet recorded
    row.latency_buckets = slot.latency.BucketCounts();
    for (const uint64_t count : row.latency_buckets) {
      row.latency_count += count;
    }
    FillPercentiles(row);
    row.backend = name != nullptr ? name : BackendNameForId(backend_id);
    AddCompletions(snap, row);
    snap.backends.push_back(std::move(row));
  };
  for (const BackendSlot& slot : backend_slots_) {
    const uint64_t key = slot.key.load(std::memory_order_acquire);
    if (key != 0) add_row(slot, static_cast<uint32_t>(key - 1), nullptr);
  }
  add_row(overflow_slot_, 0, "other");
  SortRows(snap.backends);
  FillPercentiles(snap);
  return snap;
}

}  // namespace hkpr
