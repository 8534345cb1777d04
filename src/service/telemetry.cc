#include "service/telemetry.h"

#include <algorithm>

#include "hkpr/backend.h"

namespace hkpr {

namespace {

double UsToSeconds(uint64_t us) { return static_cast<double>(us) * 1e-6; }

}  // namespace

// ---------------------------------------------------------------------------
// ServiceTelemetry

ServiceTelemetry::ServiceTelemetry(const TelemetryOptions& options)
    : enabled_(options.enabled) {}

ServiceTelemetry::BackendSlot* ServiceTelemetry::FindOrClaimSlot(
    uint32_t backend_id) {
  const uint64_t key = static_cast<uint64_t>(backend_id) + 1;
  for (BackendSlot& slot : backend_slots_) {
    uint64_t seen = slot.key.load(std::memory_order_acquire);
    if (seen == key) return &slot;
    if (seen == 0) {
      if (slot.key.compare_exchange_strong(seen, key,
                                           std::memory_order_acq_rel)) {
        return &slot;
      }
      if (seen == key) return &slot;  // a racer claimed it for the same id
    }
  }
  return nullptr;  // cardinality bound hit; caller folds into overflow
}

void ServiceTelemetry::Record(uint32_t backend_id, CacheOutcome outcome,
                              const QueryTrace& trace) {
  if (!enabled_) return;
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
  const uint64_t compute_us = compute_end_us - compute_begin_us;
  queue_wait_.Record(UsToSeconds(queue_us));
  cache_lookup_.Record(UsToSeconds(cache_us));
  // Cache-served queries (hit/coalesced) have a zero-width compute
  // segment by construction; recording them would drag the compute
  // percentiles to zero on warm traffic, so the compute stage counts
  // only queries that actually ran an estimator.
  const bool computed =
      outcome == CacheOutcome::kMiss || outcome == CacheOutcome::kNone;
  if (computed) {
    compute_.Record(UsToSeconds(compute_us));
    compute_us_.fetch_add(compute_us, std::memory_order_relaxed);
  }
  queue_wait_us_.fetch_add(queue_us, std::memory_order_relaxed);
  cache_lookup_us_.fetch_add(cache_us, std::memory_order_relaxed);
  total_us_.fetch_add(complete_us, std::memory_order_relaxed);

  BackendSlot* slot = FindOrClaimSlot(backend_id);
  if (slot == nullptr) slot = &overflow_slot_;
  slot->completed.fetch_add(1, std::memory_order_relaxed);
  switch (outcome) {
    case CacheOutcome::kHit:
      slot->cache_hits.fetch_add(1, std::memory_order_relaxed);
      break;
    case CacheOutcome::kCoalesced:
      slot->coalesced.fetch_add(1, std::memory_order_relaxed);
      break;
    case CacheOutcome::kMiss:
    case CacheOutcome::kNone:
      slot->computed.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  slot->latency.Record(UsToSeconds(complete_us));
}

void ServiceTelemetry::FillStages(ServiceStatsSnapshot& snap) const {
  if (!enabled_) return;
  snap.stage_tracing = true;
  const auto fill = [](const LatencyHistogram& hist,
                       const std::atomic<uint64_t>& sum_us,
                       StageLatencySnapshot& stage) {
    stage.buckets = hist.BucketCounts();
    stage.count = 0;
    for (const uint64_t count : stage.buckets) stage.count += count;
    stage.total_us = sum_us.load(std::memory_order_relaxed);
    stage.p50_ms = LatencyPercentileMs(stage.buckets, 0.50);
    stage.p95_ms = LatencyPercentileMs(stage.buckets, 0.95);
    stage.p99_ms = LatencyPercentileMs(stage.buckets, 0.99);
  };
  fill(queue_wait_, queue_wait_us_, snap.queue_wait);
  fill(cache_lookup_, cache_lookup_us_, snap.cache_lookup);
  fill(compute_, compute_us_, snap.compute);
  snap.traced_total_us = total_us_.load(std::memory_order_relaxed);
}

void ServiceTelemetry::FillBackendRow(const BackendSlot& slot,
                                      uint32_t backend_id,
                                      BackendStatsSnapshot& row) {
  row.backend_id = backend_id;
  row.completed = slot.completed.load(std::memory_order_relaxed);
  row.computed = slot.computed.load(std::memory_order_relaxed);
  row.cache_hits = slot.cache_hits.load(std::memory_order_relaxed);
  row.coalesced = slot.coalesced.load(std::memory_order_relaxed);
  row.latency_buckets = slot.latency.BucketCounts();
  row.latency_count = 0;
  for (const uint64_t count : row.latency_buckets) row.latency_count += count;
  row.latency_p50_ms = LatencyPercentileMs(row.latency_buckets, 0.50);
  row.latency_p95_ms = LatencyPercentileMs(row.latency_buckets, 0.95);
  row.latency_p99_ms = LatencyPercentileMs(row.latency_buckets, 0.99);
}

/// Registry name for a stable backend id; the registry has no reverse
/// index, so resolve by scanning the (small, fixed) name list.
static std::string BackendNameForId(uint32_t backend_id) {
  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    if (StableBackendId(name) == backend_id) return name;
  }
  return "id:" + std::to_string(backend_id);
}

TelemetrySnapshot ServiceTelemetry::Snapshot() const {
  TelemetrySnapshot snap;
  if (!enabled_) return snap;
  for (const BackendSlot& slot : backend_slots_) {
    const uint64_t key = slot.key.load(std::memory_order_acquire);
    if (key == 0) continue;
    BackendStatsSnapshot row;
    FillBackendRow(slot, static_cast<uint32_t>(key - 1), row);
    if (row.completed == 0) continue;  // claimed but not yet recorded
    row.backend = BackendNameForId(row.backend_id);
    snap.backends.push_back(std::move(row));
  }
  if (overflow_slot_.completed.load(std::memory_order_relaxed) > 0) {
    BackendStatsSnapshot row;
    FillBackendRow(overflow_slot_, 0, row);
    row.backend = "other";
    snap.backends.push_back(std::move(row));
  }
  std::sort(snap.backends.begin(), snap.backends.end(),
            [](const BackendStatsSnapshot& a, const BackendStatsSnapshot& b) {
              return a.backend_id < b.backend_id;
            });
  return snap;
}

void MergeTelemetry(TelemetrySnapshot& into, const TelemetrySnapshot& from) {
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
    it->completed += row.completed;
    it->computed += row.computed;
    it->cache_hits += row.cache_hits;
    it->coalesced += row.coalesced;
    it->latency_count += row.latency_count;
    for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      it->latency_buckets[i] += row.latency_buckets[i];
    }
    it->latency_p50_ms = LatencyPercentileMs(it->latency_buckets, 0.50);
    it->latency_p95_ms = LatencyPercentileMs(it->latency_buckets, 0.95);
    it->latency_p99_ms = LatencyPercentileMs(it->latency_buckets, 0.99);
  }
  std::sort(into.backends.begin(), into.backends.end(),
            [](const BackendStatsSnapshot& a, const BackendStatsSnapshot& b) {
              return a.backend_id < b.backend_id;
            });
}

}  // namespace hkpr
