#include "hkpr/walk_kernel.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "hkpr/workspace.h"

namespace hkpr {

namespace {

// Each in-flight walk sits in one of four phases; a visit performs the reads
// whose cache lines the previous visit prefetched, then issues the prefetch
// for the next phase. One phase per visit keeps the issue-to-use distance at
// ~W slots of work.
enum class Phase : uint8_t {
  kResolveStart,  // alias columns prefetched -> resolve the indirection
  kLoadStart,     // starts entry prefetched  -> load (node, hop)
  kAdvance,       // offsets row prefetched   -> retire or pick the next arc
  kResolveHop,    // adjacency word prefetched-> complete the move
};

struct Slot {
  CounterRng rng;
  uint64_t local;  // walk index relative to first_walk
  AliasSampler::PendingSample pending;
  uint32_t sample;  // resolved alias index
  NodeId node;
  uint32_t hop;
  uint64_t pos;  // absolute adjacency position of the in-flight move
  uint32_t steps;
  Phase phase;
};

}  // namespace

uint64_t RunInterleavedWalks(const Graph& graph, const HeatKernel& kernel,
                             const WalkStartSet& starts, uint64_t stream_seed,
                             uint64_t first_walk, uint64_t num_walks,
                             NodeId* ends, uint32_t width,
                             uint32_t* per_walk_steps) {
  if (num_walks == 0) return 0;
  HKPR_DCHECK(ends != nullptr);
  HKPR_DCHECK(starts.alias == nullptr || starts.entries != nullptr);

  const uint32_t max_hop = kernel.MaxHop();
  const std::span<const double> term = kernel.TerminationProbs();
  const NodeId* adjacency = graph.adjacency().data();

  width = std::clamp<uint32_t>(width, 1, kMaxWalkKernelWidth);

  // Width 1 has no loads to overlap; the phase machine would only add
  // dispatch overhead, so run the same streams through a straight loop.
  // Draw-for-draw identical to the interleaved path below.
  if (width == 1) {
    CounterRng rng;
    uint64_t total_steps = 0;
    for (uint64_t w = 0; w < num_walks; ++w) {
      rng.ResetStream(stream_seed, first_walk + w);
      NodeId node;
      uint32_t hop;
      if (starts.alias != nullptr) {
        const uint32_t sample = starts.alias->Sample(rng);
        node = starts.entries[sample].first;
        hop = starts.entries[sample].second;
      } else {
        node = starts.fixed_node;
        hop = 0;
      }
      uint32_t steps = 0;
      if (hop < max_hop && graph.Degree(node) != 0) {
        while (hop < max_hop) {
          if (rng.UniformDouble() <= term[hop]) break;
          node = graph.RandomNeighbor(node, rng);
          ++hop;
          ++steps;
          if (graph.Degree(node) == 0) break;
        }
      }
      ends[w] = node;
      total_steps += steps;
      if (per_walk_steps != nullptr) per_walk_steps[w] = steps;
    }
    return total_steps;
  }

  Slot slots[kMaxWalkKernelWidth];

  // Points a slot at walk `local` and issues that walk's first prefetch:
  // draws happen here (alias column + acceptance) or in kAdvance, always in
  // the walk's canonical order on the walk's own stream.
  const auto refill = [&](Slot& s, uint64_t local) {
    s.rng.ResetStream(stream_seed, first_walk + local);
    s.local = local;
    s.steps = 0;
    if (starts.alias != nullptr) {
      s.pending = starts.alias->PrepareSample(s.rng);
      s.phase = Phase::kResolveStart;
    } else {
      s.node = starts.fixed_node;
      s.hop = 0;
      graph.PrefetchNode(s.node);
      s.phase = Phase::kAdvance;
    }
  };

  uint64_t next = 0;
  uint32_t active = 0;
  while (active < width && next < num_walks) refill(slots[active++], next++);

  uint64_t total_steps = 0;
  uint32_t i = 0;
  while (active > 0) {
    if (i >= active) i = 0;
    Slot& s = slots[i];
    bool retired = false;
    switch (s.phase) {
      case Phase::kResolveStart: {
        s.sample = starts.alias->ResolveSample(s.pending);
#if defined(__GNUC__)
        __builtin_prefetch(&starts.entries[s.sample], 0, 1);
#endif
        s.phase = Phase::kLoadStart;
        break;
      }
      case Phase::kLoadStart: {
        s.node = starts.entries[s.sample].first;
        s.hop = starts.entries[s.sample].second;
        graph.PrefetchNode(s.node);
        s.phase = Phase::kAdvance;
        break;
      }
      case Phase::kAdvance: {
        const uint32_t d = graph.Degree(s.node);
        if (s.hop >= max_hop || d == 0 ||
            s.rng.UniformDouble() <= term[s.hop]) {
          retired = true;
          break;
        }
        const uint64_t idx = s.rng.UniformInt(d);
        s.pos = graph.offsets()[s.node] + idx;
#if defined(__GNUC__)
        __builtin_prefetch(&adjacency[s.pos], 0, 1);
#endif
        s.phase = Phase::kResolveHop;
        break;
      }
      case Phase::kResolveHop: {
        s.node = adjacency[s.pos];
        ++s.hop;
        ++s.steps;
        graph.PrefetchNode(s.node);
        s.phase = Phase::kAdvance;
        break;
      }
    }
    if (retired) {
      ends[s.local] = s.node;
      total_steps += s.steps;
      if (per_walk_steps != nullptr) per_walk_steps[s.local] = s.steps;
      if (next < num_walks) {
        refill(s, next++);
        ++i;
      } else {
        slots[i] = slots[--active];  // swap-remove; revisit index i next
      }
    } else {
      ++i;
    }
  }
  return total_steps;
}

uint64_t RunWalkPhase(const Graph& graph, const HeatKernel& kernel,
                      const WalkStartSet& starts, uint64_t stream_seed,
                      uint64_t num_walks, double increment,
                      const WalkKernelOptions& options, QueryWorkspace& ws) {
  ws.walk_ends.resize(num_walks);
  const uint64_t steps = RunInterleavedWalks(
      graph, kernel, starts, stream_seed, 0, num_walks, ws.walk_ends.data(),
      EffectiveWalkWidth(graph, options));
  for (uint64_t i = 0; i < num_walks; ++i) {
    ws.result.Add(ws.walk_ends[i], increment);
  }
  return steps;
}

}  // namespace hkpr
