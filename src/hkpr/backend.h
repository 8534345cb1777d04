// Pluggable estimator backends.
//
// A "backend" is a WorkspaceEstimator (hkpr/estimator.h) registered under a
// stable string name. The EstimatorRegistry maps names to factories plus
// metadata, so every serving layer — QueryExecutor, AsyncQueryService, the
// benches and the line-protocol server — can select any estimator in the
// codebase by name instead of hard-coding one.
//
// Each backend also carries a *stable 32-bit id* derived from its name
// (FNV-1a, collision-checked at registration). Result caches persist this id
// in their keys, so estimates computed by distinct backends can never
// satisfy each other's lookups, regardless of registration order or which
// frontend produced them.
//
// Built-in backends (see backend.cc): "tea+", "tea", "monte-carlo", "push",
// "hk-relax", "cluster-hkpr". Register() accepts additional ones at runtime.

#ifndef HKPR_HKPR_BACKEND_H_
#define HKPR_HKPR_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "hkpr/estimator.h"
#include "hkpr/params.h"
#include "hkpr/tea_plus.h"

namespace hkpr {

/// Tuning knobs a backend factory may read beyond the shared ApproxParams.
/// One context can be reused across backends; each factory reads only the
/// fields it understands and ignores the rest.
struct BackendContext {
  /// TEA+ tuning (backend "tea+").
  TeaPlusOptions tea_plus;
  /// Walk-phase interleave width for every randomized walk backend (tea+,
  /// tea and monte-carlo); the factories copy this over the per-algorithm
  /// options' walk_kernel field so one frontend flag steers all of them.
  WalkKernelOptions walk_kernel;
  /// Precomputed Equation-(6) p'_f; < 0 means "compute from the graph" (an
  /// O(n) scan). Serving frontends fill this once per (graph, params) — see
  /// ResolvedSpec() — and share it across their per-worker estimators.
  double pf_prime = -1.0;
};

/// A serving backend choice: a registry name plus the tuning context its
/// factory reads. The default spec serves TEA+ with default tuning.
struct BackendSpec {
  std::string name = "tea+";
  BackendContext context;
};

/// Everything the registry knows about one backend.
struct BackendInfo {
  /// Canonical registry key ("tea+", "hk-relax", ...).
  std::string name;
  /// StableBackendId(name); filled in by Register().
  uint32_t stable_id = 0;
  /// The algorithm behind the backend, for reports and docs.
  std::string algorithm;
  /// True when the backend consumes RNG. Randomized backends honor
  /// Reseed() and need p'_f (Equation 6) to size their walk counts.
  bool randomized = false;
  /// Constructs a fresh estimator over `graph` (which must outlive it).
  std::function<std::unique_ptr<WorkspaceEstimator>(
      const Graph& graph, const ApproxParams& params, uint64_t seed,
      const BackendContext& context)>
      factory;
};

/// The stable id a backend name maps to: 32-bit FNV-1a of the name. A pure
/// function of the name, so ids survive process restarts and registration
/// reordering — safe to persist in cache keys.
uint32_t StableBackendId(std::string_view name);

/// String-keyed backend registry. All methods are thread-safe; registered
/// entries are never removed, so BackendInfo pointers stay valid for the
/// registry's lifetime.
class EstimatorRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in backends.
  static EstimatorRegistry& Global();

  /// Registers a backend under `info.name` (factory must be non-null).
  /// Check-fails on duplicate names or stable-id collisions; fills in
  /// `info.stable_id`.
  void Register(BackendInfo info);

  /// The entry for `name`, or nullptr when unknown.
  const BackendInfo* Find(std::string_view name) const;

  bool Contains(std::string_view name) const { return Find(name) != nullptr; }

  /// Registered names, sorted lexicographically.
  std::vector<std::string> Names() const;

  /// Names() joined with `separator` — the "available backends" string
  /// frontends print in error and help messages.
  std::string JoinedNames(std::string_view separator = ",") const;

  /// Constructs the named backend. Check-fails on unknown names — callers
  /// that need a graceful path (e.g. protocol servers) Find() first.
  std::unique_ptr<WorkspaceEstimator> Create(
      std::string_view name, const Graph& graph, const ApproxParams& params,
      uint64_t seed, const BackendContext& context = {}) const;

 private:
  EstimatorRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<BackendInfo>> entries_;
};

/// Returns `spec` with every shareable precomputation filled in: when the
/// spec'd backend is randomized and `context.pf_prime` is unset, p'_f is
/// computed once (an O(n) scan). Serving frontends that build one estimator
/// per worker resolve the spec once and construct all executors from the
/// result. Check-fails on unknown backend names.
BackendSpec ResolvedSpec(const BackendSpec& spec, const Graph& graph,
                         const ApproxParams& params);

}  // namespace hkpr

#endif  // HKPR_HKPR_BACKEND_H_
