#include "net/delay.hpp"

#include <algorithm>
#include <stdexcept>

namespace gcs::net {

DelayModel make_constant_delay(sim::Duration bound, sim::Duration value) {
  if (bound <= 0.0) {
    throw std::invalid_argument("make_constant_delay: bound must be positive");
  }
  DelayModel m;
  m.bound = bound;
  m.floor = std::clamp(value, 0.0, bound);
  m.constant = true;
  m.sample = [value](const Edge&, util::Rng&) { return value; };
  return m;
}

DelayModel make_uniform_delay(sim::Duration bound, sim::Duration lo,
                              sim::Duration hi) {
  if (bound <= 0.0 || lo > hi) {
    throw std::invalid_argument("make_uniform_delay: bad bounds");
  }
  DelayModel m;
  m.bound = bound;
  m.floor = std::clamp(lo, 0.0, bound);
  m.sample = [lo, hi](const Edge&, util::Rng& rng) {
    return rng.uniform(lo, hi);
  };
  return m;
}

}  // namespace gcs::net
