// Per-query execution plans and adaptive backend routing.
//
// The paper's central empirical result is that no single estimator
// dominates: TEA+ wins on most seeds, but deterministic push (HK-Relax
// style) is preferable at small t and for high-degree seeds, and pure
// Monte-Carlo when the residue stays concentrated near the seed. A serving
// stack that hard-wires one backend per service leaves that headroom on the
// table — and forces a full drain/rebuild to change its mind.
//
// This header makes the backend choice *per query*:
//
//  - A QueryPlan is the fully resolved identity of one computation: a
//    concrete registry backend (name + stable id) plus the effective
//    ApproxParams. Every serving layer executes plans, caches by plan, and
//    stamps results with the plan's backend — two distinct plans can never
//    share state.
//  - PlanOverrides is what a *request* may say: an explicit backend name,
//    the reserved name "auto" (route for me), and/or t / eps_r / delta
//    parameter overrides composed onto the service defaults.
//  - A RuleBasedRouter fills in the backend when the request (or the
//    service default) says "auto": a threshold rule on seed degree, t and
//    graph scale mirroring the paper's findings.
//
// Resolution (ResolveQueryPlan) is cheap — no graph scans — so serving
// frontends run it on every submission.

#ifndef HKPR_HKPR_ROUTER_H_
#define HKPR_HKPR_ROUTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "graph/graph.h"
#include "hkpr/params.h"

namespace hkpr {

/// The reserved backend name that asks the router to pick: requests (and
/// service defaults) say "auto", plans never do.
inline constexpr std::string_view kAutoBackend = "auto";

/// The fully resolved identity of one HKPR computation: which registered
/// backend runs it and with which effective parameters. Never contains
/// "auto" — resolution happened before a plan exists. Executing the same
/// plan at the same (engine seed, query index) is bit-identical regardless
/// of which frontend ran it or what it executed before.
struct QueryPlan {
  /// Concrete EstimatorRegistry name ("tea+", "hk-relax", ...).
  std::string backend;
  /// The registry's collision-checked stable id for `backend` (cache-key
  /// material; see StableBackendId in hkpr/backend.h).
  uint32_t backend_id = 0;
  /// Effective parameters: service defaults with any request overrides
  /// applied.
  ApproxParams params;
};

/// What one request may override about its plan. Empty fields defer to the
/// service (or per-graph) defaults.
struct PlanOverrides {
  /// "" = use the default backend; "auto" = route adaptively; any other
  /// value must be a registered backend name.
  std::string backend;
  /// Per-request parameter overrides composed onto the default params.
  /// p_f is deliberately not overridable: p'_f (Equation 6) is an O(n)
  /// scan per distinct p_f, so it stays a service-level choice.
  std::optional<double> t;
  std::optional<double> eps_r;
  std::optional<double> delta;

  bool empty() const {
    return backend.empty() && !t.has_value() && !eps_r.has_value() &&
           !delta.has_value();
  }
};

/// `base` with the overrides' t / eps_r / delta applied.
ApproxParams ApplyParamOverrides(const ApproxParams& base,
                                 const PlanOverrides& overrides);

/// True when `params` are servable by every registered estimator: all
/// fields finite, 0 < t <= 700, eps_r in (0, 1), delta in (0, 1], p_f in
/// (0, 1). No normalized HKPR exceeds 1, so a larger delta would certify
/// nothing; the cap keeps HK-Relax's absolute target eps_r * delta below
/// 1, which its constructor requires.
/// The cap on t keeps the heat kernel's first weight e^{-t} a normal
/// double: it turns subnormal from t ~ 708, and from t ~ 746 it is 0 and
/// building the kernel's table aborts. Up to the cap (and from t ~ 1e-16
/// on) every hop a push drains keeps part of its residue moving,
/// ReserveFraction(k) < 1, which the push frontier's positive adds rely on
/// (hkpr/residue.h). Plan resolution rejects out-of-range
/// *request* overrides with this predicate instead of letting a lazily
/// built estimator's constructor check-fail the serving process.
bool ServableParams(const ApproxParams& params);

/// The graph-scale routing features: a pure function of the snapshot, not
/// of the query. Serving layers compute this once per published snapshot
/// (AverageDegree and friends are O(1) here, but on the submission path
/// every load counts) and pass it into ResolveQueryPlan for every request
/// against that snapshot.
struct GraphScaleFeatures {
  uint32_t num_nodes = 0;
  uint64_t num_edges = 0;
  double avg_degree = 0.0;

  static GraphScaleFeatures Of(const Graph& graph) {
    return {graph.NumNodes(), graph.NumEdges(), graph.AverageDegree()};
  }
};

/// Everything the router looks at. Kept plain-old-data (degree and scale
/// pre-extracted) so routing never needs graph access and a logged
/// RoutingQuery can replay a decision offline.
struct RoutingQuery {
  NodeId seed = 0;
  uint32_t seed_degree = 0;
  uint32_t num_nodes = 0;
  uint64_t num_edges = 0;
  double avg_degree = 0.0;
  /// Effective parameters (after request overrides).
  ApproxParams params;
};

/// Thresholds of the rule router, calibrated against this codebase's
/// *measured* per-degree-class costs on the serving benchmark
/// (bench_service, moderate-accuracy serving params):
///
///  - TEA+'s cost falls steeply with seed degree: hub seeds spread heat so
///    fast that the push phase's early-exit certificate (Inequality 11)
///    fires and the walk phase never runs, while low-degree seeds leave
///    most residue unconverted and pay the full seed-independent walk
///    budget.
///  - HK-Relax's cost is frontier-bound and roughly degree-flat.
///
/// The two curves cross near half the average degree, so the rule routes
/// *low-degree* seeds to deterministic push and keeps TEA+ — the paper's
/// headline winner — everywhere else. (The paper's own cost model argues
/// push is preferable at *high*-degree seeds; with TEA+'s early exit in
/// this implementation the measurement says otherwise. Every cut here is a
/// knob, so a deployment that measures differently can flip the rule.)
struct RuleBasedRouterOptions {
  /// At or below this t the Taylor series is short and deterministic push
  /// certifies in a few hops regardless of the seed: route to
  /// `push_backend` (Kloster & Gleich's home regime).
  double small_t = 1.0;
  /// Low-degree rule: seeds whose degree is at most `low_degree_factor` x
  /// the average degree sit below the measured TEA+/HK-Relax crossover —
  /// their push frontier is too small to drain the residue, so TEA+ pays
  /// its full walk budget while HK-Relax stays frontier-cheap. Gated at
  /// t <= `push_max_t`: the relaxation's cost explodes with long Taylor
  /// series, TEA+'s walk phase grows only linearly in t.
  double low_degree_factor = 0.5;
  double push_max_t = 8.0;
  /// Graphs this small make the Monte-Carlo walk count (omega, which
  /// scales like 1/delta ~ n) trivial; routing there skips the push
  /// machinery entirely — the residue never needs to spread.
  uint32_t small_graph_nodes = 256;
  /// Backend names the rules resolve to.
  std::string push_backend = "hk-relax";
  std::string walk_backend = "monte-carlo";
  std::string default_backend = "tea+";
};

/// Picks a backend for an "auto" query: small t, or low-degree seed at
/// moderate t -> push; tiny graph -> Monte-Carlo; everything else -> TEA+.
/// Thread-safe (immutable after construction).
class RuleBasedRouter {
 public:
  explicit RuleBasedRouter(const RuleBasedRouterOptions& options = {});

  /// The registry backend name that should serve `query`; the view points
  /// into the router's options, so it lives as long as the router.
  std::string_view Route(const RoutingQuery& query) const;

  const RuleBasedRouterOptions& options() const { return options_; }

 private:
  RuleBasedRouterOptions options_;
};

/// The process-wide router with default thresholds; what the serving
/// layers route "auto" plans through.
const RuleBasedRouter& DefaultRouter();

/// Resolves one request into a concrete QueryPlan:
///   1. effective params = `default_params` + overrides (t / eps_r / delta)
///   2. backend = overrides.backend, else `default_backend`
///   3. "auto" is replaced by `router.Route(...)` on the seed's features
///   4. the backend name is looked up in the global EstimatorRegistry
/// Returns nullopt when the *requested* backend name is unknown or the
/// effective parameters fail ServableParams (external input — report,
/// don't abort); check-fails when the router or the default names an
/// unregistered backend (a configuration bug; services validate their
/// default params at construction). `seed` must be a valid node of
/// `graph`.
std::optional<QueryPlan> ResolveQueryPlan(const Graph& graph, NodeId seed,
                                          std::string_view default_backend,
                                          const ApproxParams& default_params,
                                          const PlanOverrides& overrides,
                                          const RuleBasedRouter& router);

/// Same, with the snapshot-level features supplied by the caller (computed
/// once per snapshot, see GraphScaleFeatures) — the per-submission variant
/// serving layers use. Only the seed's degree is read from `graph`.
std::optional<QueryPlan> ResolveQueryPlan(const Graph& graph, NodeId seed,
                                          const GraphScaleFeatures& scale,
                                          std::string_view default_backend,
                                          const ApproxParams& default_params,
                                          const PlanOverrides& overrides,
                                          const RuleBasedRouter& router);

}  // namespace hkpr

#endif  // HKPR_HKPR_ROUTER_H_
