// perfbench_tool: the compiled half of the end-to-end benchmark (run.py is
// the other half). Subcommands:
//
//   gen <small|medium> <seed> <out.txt>     R-MAT preset graph -> edge list
//   drive <port> <schedule> <out> <drain_s> open-loop TCP load (drive.cc)
//   check <graph> <t> <eps_r> <delta> <served>
//                                           exact-HKPR answer check (check.cc)
//   layers <graph> <backend> <t> <eps_r> <delta> <p_f> <cache> <seed>
//          <stream> <computed>              in-process layer timings
//                                           (layers.cc)
//   selftest                                checks of the checker and of
//                                           the TEA+ phase replay
//
// Every subcommand prints its result as one JSON object on stdout and
// exits non-zero on a usage error or a failed check.

#ifndef HKPR_PERFBENCH_TOOL_H_
#define HKPR_PERFBENCH_TOOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/params.h"
#include "hkpr/queries.h"
#include "hkpr/tea_plus.h"
#include "hkpr/workspace.h"

namespace perfbench {

int RunDrive(int argc, char** argv);
int RunCheck(int argc, char** argv);
int RunLayers(int argc, char** argv);

/// One served top-k answer: the seed it was asked for and its
/// (node, degree-normalized score) entries.
struct ServedTopK {
  hkpr::NodeId seed = 0;
  std::vector<std::pair<hkpr::NodeId, double>> entries;
};

/// Error of served entries against the exact HKPR, as a share of the
/// (d, eps_r, delta) guarantee: ratio = |served - exact| /
/// (eps_r * max(exact, delta)), exact being the degree-normalized power-
/// method value. A ratio above 1 breaks the guarantee.
struct CheckSummary {
  size_t seeds = 0;
  size_t entries = 0;
  double mean_ratio = 0.0;
  double max_ratio = 0.0;
  size_t violations = 0;  ///< entries with ratio > 1 or an invalid node
  /// Seeds with at least one violating entry, ascending.
  std::vector<hkpr::NodeId> violating_seeds;
};

/// Checks every entry of `served` on up to `threads` threads (one exact
/// power-method vector per distinct seed).
CheckSummary CheckServed(const hkpr::Graph& graph,
                         const hkpr::ApproxParams& params,
                         const std::vector<ServedTopK>& served,
                         unsigned threads);

/// Wall time of each TEA+ phase of one replayed query, milliseconds, plus
/// its work counters.
struct PhaseTimes {
  double push_ms = 0.0;
  double reduce_ms = 0.0;
  double alias_ms = 0.0;
  double walk_ms = 0.0;
  double topk_ms = 0.0;
  bool early_exit = false;
  uint64_t push_ops = 0;
  uint64_t walk_steps = 0;
};

/// Runs TeaPlusEstimator::EstimateInto's phases one public function at a
/// time — HkPushPlusInto, ReduceResidues, QueryWorkspace::
/// CollectWalkStarts, RunInterleavedWalks, TopKNormalized — with walk
/// randomness from `stream_seed`, timing each. `estimator` and `options`
/// supply the derived budgets and tuning; `kernel` is HeatKernel(params.t).
/// The estimate is left in `ws.result` and the top-k in `top_k`.
PhaseTimes ReplayTeaPlus(const hkpr::Graph& graph,
                         const hkpr::TeaPlusEstimator& estimator,
                         const hkpr::TeaPlusOptions& options,
                         const hkpr::ApproxParams& params,
                         const hkpr::HeatKernel& kernel, hkpr::NodeId seed,
                         uint64_t stream_seed, size_t k,
                         hkpr::QueryWorkspace& ws,
                         std::vector<hkpr::ScoredNode>* top_k);

/// The seed of query `query_index`'s walk streams on an engine seeded
/// with `engine_seed`: what QueryExecutor's Reseed + EstimateInto use.
uint64_t QueryStreamSeed(uint64_t engine_seed, uint64_t query_index);

/// True when two estimates hold the same entries, in the same order, with
/// bit-identical values and degree offsets.
bool BitIdentical(const hkpr::SparseVector& a, const hkpr::SparseVector& b);

/// Monotonic clock, nanoseconds.
int64_t NowNs();

}  // namespace perfbench

#endif  // HKPR_PERFBENCH_TOOL_H_
