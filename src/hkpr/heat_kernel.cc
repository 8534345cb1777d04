#include "hkpr/heat_kernel.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hkpr {

HeatKernel::HeatKernel(double t, double tail_tolerance) : t_(t) {
  HKPR_CHECK(t > 0.0) << "heat constant must be positive";
  HKPR_CHECK(tail_tolerance > 0.0 && tail_tolerance < 0.1);

  // Forward recurrence eta(k) = eta(k-1) * t / k from eta(0) = e^{-t},
  // which must be a normal double: it is subnormal from t ~ 708 and 0 from
  // t ~ 746, and every weight would inherit its lost precision.
  // Grow the table until the remaining tail mass 1 - cdf is below tolerance
  // and we are past the Poisson mode (k > t), so the tail is decreasing.
  // Past the mode, once a term no longer changes the cdf no later term
  // will, and 1 - cdf is left at the sum's own rounding error, which can
  // exceed the tolerance (for about a quarter of t in (16, 700], 1 - cdf
  // stalls near 1.2e-15); the table then ends there.
  double eta = std::exp(-t);
  HKPR_CHECK(std::isnormal(eta))
      << "heat constant too large: e^{-t} is not a normal double";
  double cdf = eta;
  eta_.push_back(eta);
  cdf_.push_back(cdf);
  uint32_t k = 0;
  while (1.0 - cdf > tail_tolerance || static_cast<double>(k) <= t) {
    ++k;
    eta *= t / static_cast<double>(k);
    const double before = cdf;
    cdf += eta;
    eta_.push_back(eta);
    cdf_.push_back(cdf);
    if (cdf == before && static_cast<double>(k) > t) break;
    HKPR_CHECK(k < 100000) << "heat kernel table failed to converge";
  }

  // Backward suffix sums for psi; the ignored analytic tail (< tolerance) is
  // folded into the last entry so that psi(0) == 1 exactly.
  psi_.assign(eta_.size(), 0.0);
  double tail = std::max(0.0, 1.0 - cdf);
  for (size_t i = eta_.size(); i-- > 0;) {
    tail += eta_[i];
    psi_[i] = tail;
  }

  term_.assign(eta_.size(), 0.0);
  for (size_t i = 0; i < eta_.size(); ++i) term_[i] = eta_[i] / psi_[i];
}

uint32_t HeatKernel::SamplePoissonLength(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return MaxHop();
  return static_cast<uint32_t>(it - cdf_.begin());
}

}  // namespace hkpr
