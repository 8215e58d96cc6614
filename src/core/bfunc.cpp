#include "core/bfunc.hpp"

#include <algorithm>
#include <stdexcept>

namespace gcs::core {

BFunction::BFunction(double b0, double g, double tau, double rho)
    : b0_(b0), g_(g), tau_(tau), rho_(rho) {
  // Written as !(in range) so a NaN fails the test instead of passing it.
  if (!(b0_ > 0.0)) throw std::invalid_argument("BFunction: b0 must be > 0");
  if (!(g_ >= 0.0)) throw std::invalid_argument("BFunction: g must be >= 0");
  if (!(tau_ >= 0.0)) {
    throw std::invalid_argument("BFunction: tau must be >= 0");
  }
  if (!(rho_ > 0.0 && rho_ < 1.0)) {
    throw std::invalid_argument("BFunction: rho must be in (0, 1)");
  }
}

double BFunction::operator()(double age) const {
  age = std::max(age, 0.0);
  const double decayed = g_ - rho_ * std::max(age - tau_, 0.0);
  return b0_ + std::max(decayed, 0.0);
}

double BFunction::decay_age() const { return tau_ + g_ / rho_; }

}  // namespace gcs::core
