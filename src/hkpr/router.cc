#include "hkpr/router.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "hkpr/backend.h"

namespace hkpr {

ApproxParams ApplyParamOverrides(const ApproxParams& base,
                                 const PlanOverrides& overrides) {
  ApproxParams params = base;
  if (overrides.t.has_value()) params.t = *overrides.t;
  if (overrides.eps_r.has_value()) params.eps_r = *overrides.eps_r;
  if (overrides.delta.has_value()) params.delta = *overrides.delta;
  return params;
}

bool ServableParams(const ApproxParams& params) {
  return std::isfinite(params.t) && params.t > 0.0 && params.t <= 700.0 &&
         std::isfinite(params.eps_r) && params.eps_r > 0.0 &&
         params.eps_r < 1.0 && std::isfinite(params.delta) &&
         params.delta > 0.0 && params.delta <= 1.0 &&
         std::isfinite(params.p_f) && params.p_f > 0.0 &&
         params.p_f < 1.0;
}

RuleBasedRouter::RuleBasedRouter(const RuleBasedRouterOptions& options)
    : options_(options) {
  HKPR_CHECK(!options_.push_backend.empty() &&
             !options_.walk_backend.empty() &&
             !options_.default_backend.empty())
      << "rule-based router needs non-empty backend names";
}

std::string_view RuleBasedRouter::Route(const RoutingQuery& query) const {
  // Short Taylor series: deterministic push certifies in a few hops
  // regardless of the seed.
  if (query.params.t <= options_.small_t) return options_.push_backend;
  // Low-degree seed at moderate t: below the measured TEA+/HK-Relax cost
  // crossover the push frontier is too small to drain the residue and
  // TEA+ pays its full (seed-independent) walk budget, while HK-Relax
  // stays frontier-cheap.
  const double low_cut =
      options_.low_degree_factor * std::max(1.0, query.avg_degree);
  if (query.params.t <= options_.push_max_t &&
      static_cast<double>(query.seed_degree) <= low_cut) {
    return options_.push_backend;
  }
  // Tiny graph: omega ~ 1/delta ~ n is trivial, so pure Monte-Carlo skips
  // the push set-up entirely.
  if (query.num_nodes <= options_.small_graph_nodes) {
    return options_.walk_backend;
  }
  return options_.default_backend;
}

const RuleBasedRouter& DefaultRouter() {
  static const RuleBasedRouter* router = new RuleBasedRouter();
  return *router;
}

std::optional<QueryPlan> ResolveQueryPlan(const Graph& graph, NodeId seed,
                                          std::string_view default_backend,
                                          const ApproxParams& default_params,
                                          const PlanOverrides& overrides,
                                          const RuleBasedRouter& router) {
  return ResolveQueryPlan(graph, seed, GraphScaleFeatures::Of(graph),
                          default_backend, default_params, overrides, router);
}

std::optional<QueryPlan> ResolveQueryPlan(const Graph& graph, NodeId seed,
                                          const GraphScaleFeatures& scale,
                                          std::string_view default_backend,
                                          const ApproxParams& default_params,
                                          const PlanOverrides& overrides,
                                          const RuleBasedRouter& router) {
  HKPR_CHECK(seed < graph.NumNodes()) << "plan seed out of range";
  QueryPlan plan;
  plan.params = ApplyParamOverrides(default_params, overrides);
  if (!ServableParams(plan.params)) {
    // Out-of-range effective parameters are reported, never allowed to
    // reach an estimator constructor's check-fail on a serving thread.
    // Broken *defaults* die loudly at service construction (which
    // validates with the same predicate), so reaching here means a
    // request override pushed the params out of range — external input.
    return std::nullopt;
  }

  const bool requested = !overrides.backend.empty();
  std::string_view backend = requested ? overrides.backend : default_backend;
  const bool routed = backend == kAutoBackend;
  if (routed) {
    RoutingQuery query;
    query.seed = seed;
    query.seed_degree = graph.Degree(seed);
    query.num_nodes = scale.num_nodes;
    query.num_edges = scale.num_edges;
    query.avg_degree = scale.avg_degree;
    query.params = plan.params;
    backend = router.Route(query);
  }

  const BackendInfo* info = EstimatorRegistry::Global().Find(backend);
  if (info == nullptr) {
    // A request naming an unknown backend is external input: report it.
    // The router or the configured default naming one is a wiring bug:
    // die loudly so it cannot ship.
    HKPR_CHECK(requested && !routed)
        << "router / default backend resolved to unregistered backend \""
        << backend << "\" (available: "
        << EstimatorRegistry::Global().JoinedNames() << ")";
    return std::nullopt;
  }
  plan.backend = std::string(backend);
  plan.backend_id = info->stable_id;
  return plan;
}

}  // namespace hkpr
