#include "hkpr/backend.h"

#include <algorithm>
#include <utility>

#include "baselines/cluster_hkpr.h"
#include "baselines/hk_relax.h"
#include "common/logging.h"
#include "hkpr/monte_carlo.h"
#include "hkpr/push_estimator.h"
#include "hkpr/tea.h"

namespace hkpr {

uint32_t StableBackendId(std::string_view name) {
  // 32-bit FNV-1a. Not cryptographic — collisions are caught at Register().
  uint32_t h = 2166136261u;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

void EstimatorRegistry::Register(BackendInfo info) {
  HKPR_CHECK(!info.name.empty()) << "backend name must be non-empty";
  HKPR_CHECK(info.factory != nullptr)
      << "backend \"" << info.name << "\" has no factory";
  info.stable_id = StableBackendId(info.name);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    HKPR_CHECK(entry->name != info.name)
        << "backend \"" << info.name << "\" registered twice";
    HKPR_CHECK(entry->stable_id != info.stable_id)
        << "stable-id collision between backends \"" << entry->name
        << "\" and \"" << info.name << "\"";
  }
  entries_.push_back(std::make_unique<BackendInfo>(std::move(info)));
}

const BackendInfo* EstimatorRegistry::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

std::vector<std::string> EstimatorRegistry::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(entries_.size());
    for (const auto& entry : entries_) names.push_back(entry->name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string EstimatorRegistry::JoinedNames(std::string_view separator) const {
  std::string joined;
  for (const std::string& name : Names()) {
    if (!joined.empty()) joined += separator;
    joined += name;
  }
  return joined;
}

std::unique_ptr<WorkspaceEstimator> EstimatorRegistry::Create(
    std::string_view name, const Graph& graph, const ApproxParams& params,
    uint64_t seed, const BackendContext& context) const {
  const BackendInfo* info = Find(name);
  HKPR_CHECK(info != nullptr) << "unknown estimator backend \"" << name
                              << "\" (see EstimatorRegistry::Names())";
  return info->factory(graph, params, seed, context);
}

namespace {

void RegisterBuiltins(EstimatorRegistry* registry) {
  registry->Register(BackendInfo{
      .name = "tea+",
      .algorithm = "TEA+ (Algorithm 5): budgeted HK-Push+ with residue "
                   "reduction, then residue-guided walks",
      .randomized = true,
      .factory = [](const Graph& graph, const ApproxParams& params,
                    uint64_t seed, const BackendContext& ctx) {
        TeaPlusOptions options = ctx.tea_plus;
        options.walk_kernel = ctx.walk_kernel;
        return std::unique_ptr<WorkspaceEstimator>(new TeaPlusEstimator(
            graph, params, seed, options, ctx.pf_prime));
      }});

  registry->Register(BackendInfo{
      .name = "tea",
      .algorithm = "TEA (Algorithm 3): HK-Push, then residue-guided walks",
      .randomized = true,
      .factory = [](const Graph& graph, const ApproxParams& params,
                    uint64_t seed, const BackendContext& ctx) {
        TeaOptions options;
        options.walk_kernel = ctx.walk_kernel;
        return std::unique_ptr<WorkspaceEstimator>(
            new TeaEstimator(graph, params, seed, options, ctx.pf_prime));
      }});

  registry->Register(BackendInfo{
      .name = "monte-carlo",
      .algorithm = "pure Monte-Carlo (Section 3, Chung & Simpson 2015): "
                   "omega heat-kernel walks from the seed",
      .randomized = true,
      .factory = [](const Graph& graph, const ApproxParams& params,
                    uint64_t seed, const BackendContext& ctx) {
        return std::unique_ptr<WorkspaceEstimator>(new MonteCarloEstimator(
            graph, params, seed, ctx.pf_prime, ctx.walk_kernel));
      }});

  registry->Register(BackendInfo{
      .name = "push",
      .algorithm = "deterministic push-only: HK-Push+ with unlimited budget "
                   "until Inequality (11) certifies",
      .randomized = false,
      .factory = [](const Graph& graph, const ApproxParams& params,
                    uint64_t /*seed*/, const BackendContext& /*ctx*/) {
        return std::unique_ptr<WorkspaceEstimator>(
            new PushOnlyEstimator(graph, params));
      }});

  registry->Register(BackendInfo{
      .name = "hk-relax",
      .algorithm = "HK-Relax (Kloster & Gleich 2014): deterministic "
                   "queue-driven relaxation of the Taylor residuals",
      .randomized = false,
      .factory = [](const Graph& graph, const ApproxParams& params,
                    uint64_t /*seed*/, const BackendContext& /*ctx*/) {
        // eps_a = eps_r * delta is the absolute target TEA+'s early-exit
        // test certifies, so the deterministic baseline answers to
        // comparable accuracy.
        HkRelaxOptions options;
        options.t = params.t;
        options.eps_a = params.eps_r * params.delta;
        return std::unique_ptr<WorkspaceEstimator>(
            new HkRelaxEstimator(graph, options));
      }});

  registry->Register(BackendInfo{
      .name = "cluster-hkpr",
      .algorithm = "ClusterHKPR (Chung & Simpson 2014): pure walks with the "
                   "16 log(n)/eps^3 count, eps = eps_r",
      .randomized = true,
      .factory = [](const Graph& graph, const ApproxParams& params,
                    uint64_t seed, const BackendContext& /*ctx*/) {
        // The baseline's own accuracy knob is the (1+eps)/eps guarantee's
        // eps; the shared eps_r plays that role. Walk counts come from the
        // Chung-Simpson formula, not omega, so p'_f is not consumed.
        ClusterHkprOptions options;
        options.t = params.t;
        options.eps = params.eps_r;
        return std::unique_ptr<WorkspaceEstimator>(
            new ClusterHkprEstimator(graph, options, seed));
      }});
}

}  // namespace

EstimatorRegistry& EstimatorRegistry::Global() {
  static EstimatorRegistry* registry = [] {
    auto* r = new EstimatorRegistry();  // leaked: lives until process exit
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

BackendSpec ResolvedSpec(const BackendSpec& spec, const Graph& graph,
                         const ApproxParams& params) {
  const BackendInfo* info = EstimatorRegistry::Global().Find(spec.name);
  HKPR_CHECK(info != nullptr) << "unknown estimator backend \"" << spec.name
                              << "\" (see EstimatorRegistry::Names())";
  BackendSpec resolved = spec;
  if (info->randomized && resolved.context.pf_prime < 0.0) {
    resolved.context.pf_prime = ComputePfPrime(graph, params.p_f);
  }
  return resolved;
}

}  // namespace hkpr
