// gcs::net -- message-delay models.
//
// The algorithm's constants assume every message on a live edge arrives
// within T (SyncParams::T).  A DelayModel carries that bound plus a
// sampler; the simulator clamps every sample into (0, bound] so a buggy
// model can never violate the assumption the proofs rest on.
//
// The symmetric assumption -- every message takes AT LEAST `floor` -- is
// the conservative-lookahead window of the sharded engine: during a
// barrier window of width `floor`, no shard can receive anything sent in
// the same window, so shards may run concurrently without ever seeing an
// event out of order.  floor == 0 means "no usable lookahead" (sharded
// mode refuses to run); in sharded mode the simulator clamps samples
// into [floor, bound] so a sampler that lies about its minimum cannot
// break the lookahead contract silently.
#ifndef GCS_NET_DELAY_HPP
#define GCS_NET_DELAY_HPP

#include <functional>

#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace gcs::net {

struct DelayModel {
  sim::Duration bound = 1.0;
  // Guaranteed minimum of every sample (see header comment); the
  // factories derive it from their parameters.
  sim::Duration floor = 0.0;
  // Every sample is the same value (make_constant_delay): messages sent
  // in time order arrive in time order.
  bool constant = false;
  std::function<sim::Duration(const Edge&, util::Rng&)> sample;
};

// Every message takes exactly `value` (clamped to the bound).
DelayModel make_constant_delay(sim::Duration bound, sim::Duration value);

// Delays drawn uniformly from [lo, hi] (clamped to (0, bound]).
DelayModel make_uniform_delay(sim::Duration bound, sim::Duration lo,
                              sim::Duration hi);

}  // namespace gcs::net

#endif  // GCS_NET_DELAY_HPP
