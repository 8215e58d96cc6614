// gcs::net -- the link-layer delivery pipeline.
//
// The paper's delivery model is one stochastic draw per message.  Real
// links serialize bytes at a finite bandwidth and queue behind earlier
// traffic, so delivery time is queueing-dependent, not sampled.  A
// LinkModel composes the two:
//
//   total delay = queue wait + transmission time + propagation sample
//
// where the propagation component is exactly the old DelayModel (bound,
// floor, sampler) and the wait/tx components come from a per-direction
// FIFO governed by a TrafficModel (bandwidth, bounded queue, ECN-style
// marking, background flows).  The total is clamped above to the
// propagation bound so the algorithm's standing assumption -- every sync
// message on a live edge arrives within T -- survives arbitrary load:
// sync messages are never queue-dropped, their latency saturates at the
// bound (and the ECN mark counters say how hard the link was pushed).
//
// Lookahead contract (sharded engine): queueing only ever ADDS delay, so
// total >= propagation >= DelayModel::floor.  The conservative barrier
// window keeps being derived from the propagation floor alone, and stays
// sound under any traffic model -- NetworkSimulation documents and the
// link tests pin this.
//
// Determinism: the pipeline is RNG-free.  Queue state is one double per
// link direction, background flows fire on a fixed per-direction phase
// derived from the edge key, and the only randomness in a delivery
// remains the propagation draw -- so traffic-on trajectories are
// byte-identical across engines, shard counts, and --jobs, and the
// "idle" model with infinite bandwidth degenerates bit-exactly to the
// ideal path (wait == tx == 0.0 adds nothing to the sampled double).
#ifndef GCS_NET_LINK_HPP
#define GCS_NET_LINK_HPP

#include <cstdint>
#include <string>
#include <utility>

#include "net/delay.hpp"

namespace gcs::net {

// The serialization/queueing half of a link, plus the background load
// offered to it.  Parsed from the --traffic axis (see parse_traffic).
struct TrafficModel {
  enum class Kind : std::uint8_t {
    kIdeal,  // "off": the legacy path -- no pipeline, no flows
    kIdle,   // pipeline on, no background flows
    kCbr,    // constant-rate packets per direction (UDP-like, droppable)
    kBulk,   // periodic bulk bursts per direction (greedy, backpressured)
  };
  Kind kind = Kind::kIdeal;
  double bandwidth = 0.0;       // bytes/sec; 0 = infinite (no serialization)
  double sync_bytes = 64.0;     // wire size of one sync message
  double queue_bytes = 0.0;     // FIFO cap for droppable packets; 0 = unbounded
  double mark_bytes = 0.0;      // ECN threshold on arrival backlog; 0 = off
  double rate = 0.0;            // cbr: packets/sec per link direction
  double packet_bytes = 1500.0; // cbr: wire size of one background packet
  double transfer_bytes = 0.0;  // bulk: bytes per burst
  double interval = 0.0;        // bulk: seconds between burst starts

  // The pipeline runs for every kind but kIdeal; with bandwidth == 0 it
  // degenerates to zero wait/tx bit-exactly (see link_offer).
  bool pipeline_active() const { return kind != Kind::kIdeal; }
  bool has_flows() const { return kind == Kind::kCbr || kind == Kind::kBulk; }
  double flow_period() const {
    return kind == Kind::kCbr ? 1.0 / rate : interval;
  }
  double flow_bytes() const {
    return kind == Kind::kCbr ? packet_bytes : transfer_bytes;
  }
  // cbr packets drop at a full queue; bulk bursts model a backpressured
  // sender that waits instead of dropping (like the sync messages).
  bool flow_droppable() const { return kind == Kind::kCbr; }
};

// Parses the --traffic axis value: "off" | "<kind>[:knob=value...]" in
// the axis-spec grammar (util/spec.hpp, docs/specs.md), with
//
//   idle   knobs: bw, queue, mark, msg            (all optional)
//   cbr    knobs: bw, rate (required), pkt, queue, mark, msg
//   bulk   knobs: bw, bytes, interval (required), queue, mark, msg
//
// bw/queue/mark/msg/pkt/bytes are in bytes (bw in bytes/sec), rate in
// packets/sec, interval in seconds.  cbr and bulk require bw > 0 (a
// background flow on an infinite-bandwidth link offers no load).  A bad
// kind or knob throws std::invalid_argument naming the knob and value.
TrafficModel parse_traffic(const std::string& spec);

// Per-direction FIFO state: the instant the transmitter frees up.  One
// double, owned by the sending endpoint (writes happen only from the
// sender's execution context), which is what keeps the sharded engine
// race-free without any locking.
struct LinkDir {
  double busy_until = 0.0;
};

// Outcome of offering one packet to a link direction.
// The largest backlog (bytes) a link direction may reach: byte counts
// are reported as whole numbers, exact in a double only up to 2^53.
// harness::read_axes refuses a traffic spec that can offer more by the
// horizon, and NetworkSimulation fails a run that queues more anyway.
inline constexpr double kMaxBacklogBytes = 0x1p53;

struct LinkDecision {
  double wait = 0.0;          // queueing delay before transmission starts
  double tx = 0.0;            // serialization time (bytes / bandwidth)
  double backlog_bytes = 0.0; // queue depth observed on arrival
  bool dropped = false;       // queue full (droppable packets only)
  bool marked = false;        // arrival backlog exceeded mark_bytes
};

// Offers `bytes` to a link direction at time `t` and advances its FIFO
// state.  Pure arithmetic, no RNG: backlog is (busy_until - t) *
// bandwidth, a dropped packet leaves the state untouched, an accepted
// one pushes busy_until forward by its transmission time.  With
// bandwidth <= 0 (or kind == kIdeal) this is the identity: all-zero
// decision, state untouched -- the bit-exact ideal-link degeneration.
LinkDecision link_offer(const TrafficModel& model, LinkDir& dir, double t,
                        double bytes, bool droppable);

// Deterministic phase fraction in (0, 1) for staggering a direction's
// background flow, derived from a stable key (the packed edge key and
// direction index) -- no RNG, so flows never perturb delay draws.
double flow_phase(std::uint64_t key);

// The full link: the legacy stochastic DelayModel as the propagation
// component, plus the traffic pipeline in front of it.  Implicitly
// constructible from a bare DelayModel (an ideal link), so every
// existing call site keeps compiling -- and keeps its exact bytes.
struct LinkModel {
  DelayModel prop;
  TrafficModel traffic;

  LinkModel() = default;
  LinkModel(DelayModel d) : prop(std::move(d)) {}  // NOLINT(runtime/explicit)
  LinkModel(DelayModel d, TrafficModel t)
      : prop(std::move(d)), traffic(t) {}
};

}  // namespace gcs::net

#endif  // GCS_NET_LINK_HPP
