// gcs::core -- NetworkSimulation: the glue layer.
//
// Owns the event engine, the hardware-clock table, the Algorithm 2
// kernel (core::DcsaColumns) holding every node's state, the live edge
// set, and the link model (traffic pipeline + propagation delay; see
// net/link.hpp), and turns a DynamicGraph schedule into edge-up/edge-down
// callbacks, periodic per-node broadcasts (every delta_h of HARDWARE
// time), background-flow emissions, and message deliveries.  Everything observable (skew, clocks, stats) is
// queryable from outside, which is what the harness and the benches
// build on.
//
// Sharded lookahead under traffic: the conservative barrier window is
// derived from the PROPAGATION floor alone (LinkModel::prop.floor).
// The pipeline only ever adds non-negative wait/tx on top of the
// propagation draw, so every delivery satisfies
//   total delay >= propagation >= floor
// and the ShardedEngine's t >= barrier merge contract holds for any
// traffic model -- queueing can never smuggle an event into the current
// window.  (The total is still clamped above to prop.bound, which keeps
// bound >= total >= floor; test_link.cpp pins both halves.)
//
// With SimOptions::check_conformance set, the simulator audits the run as
// it goes: after every delivery it checks that logical clocks never run
// backwards, and (classic mode) checks the delivered edge's skew against
// the B envelope, evaluated at the most conservative hardware age
// (1-rho) * real age.  Violations are counted, never fatal --
// bench_ablation deliberately runs crippled tolerances to show the
// counters moving.
//
// One message path, two execution layouts.  Sending, delivery, the
// delivery sink, flows, tracing and every counter are one body of code
// parameterised by an execution context (which counter slot and trace
// buffer a step writes) and a stream (which RNG draws a node's delays
// and which float bucket sums its jumps and sync delays).  Classic mode
// (shards == 0) is one context and one stream: its RNG is seeded with
// SimOptions::seed and its sums accumulate in event order.  Sharded
// mode is K+1 contexts (the shards, then the barrier-side globals) and
// n streams (one per node, folded in node order).  The two layouts
// differ only at these points, each one helper below:
//   * the scheduler: sim::Engine or sim::ShardedEngine (at_node,
//     at_global, node_now);
//   * delivery coalescing: classic stages a flush scope's messages in
//     outbox_ and schedules one event per delivery instant, sharded
//     posts one event per message (post_delivery);
//   * the lower clamp on a propagation draw: 1e-12, or the delay floor
//     the lookahead window rests on (delay_lo);
//   * the per-delivery envelope audit, which only classic runs -- it
//     reads both endpoints' clocks, which a shard may not do mid-window
//     (Sink::after);
//   * trace emission: straight to the recorder, or buffered per context
//     and merged into a canonical order after each run_until (emit).
//
// Memory: a run holds live state only.  The DynamicGraph is consumed by
// the constructor (its events become engine events; the audit sweep
// keeps the event list and a flat live edge set), the kernel's peer
// segments start at each node's initial degree, an edge-table entry is
// 24 bytes, and the link pipeline's per-direction FIFO state lives in a
// parallel array that exists only when a traffic model is on.
#ifndef GCS_CORE_NETWORK_SIM_HPP
#define GCS_CORE_NETWORK_SIM_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "clk/clock.hpp"
#include "core/bfunc.hpp"
#include "core/dcsa_columns.hpp"
#include "core/params.hpp"
#include "net/dynamic_graph.hpp"
#include "net/link.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"

namespace gcs::core {

// Float headroom on every envelope and monotonicity check: the
// simulator's per-delivery audit, the harness's sample-time audit and
// the property tests all compare against bound + kConformanceSlack.
inline constexpr double kConformanceSlack = 1e-6;

struct SimOptions {
  bool check_conformance = true;
  std::uint64_t seed = 42;            // drives delay sampling
  // Coalesce messages that a single broadcast (or edge-up exchange)
  // schedules for the same delivery instant into one engine event that
  // fans out to its receivers in send order.  Every cell runs batched;
  // false (one event per message) is the reference test_determinism and
  // bench_engine_perf's BM_DcsaDenseDelivery compare batching against --
  // trajectories are bit-identical, only the event count changes.
  bool batched_delivery = true;
  // Passive observer for structured trace records (send, deliver, drop,
  // jump, topology delta, conformance check).  Null (the default) makes
  // every emission site a single predicted-not-taken branch; a recorder
  // never schedules events or draws randomness, so attaching one leaves
  // the trajectory bit-identical (the obs tests prove it).  Not owned;
  // must outlive the simulation.
  obs::Recorder* recorder = nullptr;
  // In-cell parallelism: partition the nodes into this many shards and
  // drive them with sim::ShardedEngine (conservative lookahead on the
  // delay floor).  0 (the default) keeps the classic single-queue
  // engine.  Both run the same message path (see NetworkSimulation),
  // but sharded runs are their own deterministic universe -- their own
  // scheduler, one RNG stream per node, one delivery event per message,
  // delays clamped below to the floor, envelope conformance audited at
  // sample times instead of per delivery, traces merged in a canonical
  // order -- and within it every observable byte is invariant across
  // shard counts (shards=1 runs inline and IS the single-threaded
  // reference), but a sharded run is intentionally not byte-comparable
  // to a shards == 0 run.  Requires a delay model with floor > 0; batched_delivery is
  // ignored (cross-shard staging already batches per barrier).
  std::size_t shards = 0;
};

// The shard that owns node u when n nodes run on k shards (k >= 1):
// blocks of B = clamp(n / k, 1, 64) consecutive ids, dealt round-robin,
// so block j belongs to shard j mod k.  A pure function of (u, k, n),
// never of the run, so the partition is reproducible from the config
// alone (and K-invariance makes any partition trajectory-neutral).
//
// Why not contiguous ranges: broadcast phases are staggered by node id
// (node i's first broadcast is at hardware time delta_h (i+1)/n), so a
// range partition hands shard s all of its broadcasts -- and the
// deliveries they cause -- in the s-th K-th of every delta_h period,
// and each barrier window loads one or two shards while the rest idle.
// Dealing blocks spreads every time slice wider than k*B/n of a period
// over all shards.  Why blocks and not single ids: every per-node
// column (offsets, clocks, counters) is written by its owning shard,
// and 64 consecutive nodes fill whole cache lines of a double column,
// so shards do not false-share node state.  B shrinks with n / k so
// that every shard is non-empty whenever n >= k; shard sizes then
// differ by at most one block, and any k*B consecutive ids touch
// every shard.
inline constexpr std::size_t kShardBlock = 64;
std::uint32_t shard_of(std::size_t u, std::size_t k, std::size_t n);

// The incarnation an edge slot takes when a new edge fills it: one past
// the slot's last.  Throws std::overflow_error naming the slot once it
// has held 2^32 - 1 incarnations, instead of wrapping to a number that a
// message still in flight on an old incarnation could carry.
std::uint32_t next_incarnation(std::uint32_t current, std::uint32_t slot);

struct RunStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // edge vanished while in flight
  // Engine events scheduled to carry deliveries; messages_sent -
  // delivery_events is the number of coalesced-away events.
  std::uint64_t delivery_events = 0;
  std::uint64_t jumps = 0;
  double total_jump = 0.0;
  std::uint64_t topology_events_applied = 0;
  std::uint64_t conformance_checks = 0;
  std::uint64_t conformance_envelope_failures = 0;
  std::uint64_t conformance_monotonicity_failures = 0;
  // First engine at() call that asked for a past time: the requested time
  // and the event's seq, copied from the engine after each run_until so a
  // nonzero clamp count names the offending schedule entry.  Meaningful
  // only when engine_clamped_count() > 0 (0/0 otherwise).
  double first_clamped_time = 0.0;
  std::uint64_t first_clamped_seq = 0;
  // (T+D)-interval-connectivity audit over the topology schedule (the
  // same window/union semantics as net::audit_interval_connectivity),
  // advanced incrementally to [0, now) after each run_until.  The
  // paper's guarantees assume every full window has a connected snapshot
  // union, so a nonzero disconnected count means the workload broke the
  // standing assumption -- gcs_run --check fails the cell.
  std::uint64_t connectivity_windows_checked = 0;
  std::uint64_t connectivity_windows_disconnected = 0;
  // Memory visibility (schema v5).  arena_bytes is the kernel's flat
  // state footprint; peak_rss_kb is the process high-water RSS,
  // filled by the RUNNER after the cell completes (0 in the harness and
  // under --fixed-timing -- it is machine state, not trajectory, and
  // gcs_diff ignores both like wall_ms).
  std::uint64_t arena_bytes = 0;
  std::uint64_t peak_rss_kb = 0;
  // Link-layer traffic pipeline (schema v6).  Background load offered to
  // the per-direction FIFOs, what the bounded queue did to it, and the
  // sync messages' end-to-end latency.  sync_delay_* record wait + tx +
  // propagation for EVERY sync send (traffic off included, where they
  // reduce to the propagation draw -- that identity is part of what the
  // link-equivalence matrix byte-compares); the sum folds in node order
  // in sharded mode so the serialized double is K-invariant.  The other
  // four are zero unless a finite-bandwidth pipeline is configured.
  std::uint64_t traffic_packets = 0;   // background packets offered
  std::uint64_t traffic_dropped = 0;   // dropped at a full bounded queue
  std::uint64_t ecn_marks = 0;         // arrival backlog > mark threshold
  std::uint64_t peak_queue_bytes = 0;  // max backlog seen by any offer
  double sync_delay_sum = 0.0;
  double sync_delay_max = 0.0;
};

class NetworkSimulation {
 public:
  // `protocol` picks the ablation variant and the nodes' tolerance
  // function (plain DCSA under BFunction(params) by default).  The
  // conformance audit always checks the paper's BFunction(params)
  // envelope, whatever tolerance the nodes run.  The LinkModel is
  // implicitly constructible from a bare DelayModel (an ideal link with
  // no traffic pipeline).
  NetworkSimulation(const SyncParams& params, net::DynamicGraph graph,
                    net::LinkModel link,
                    const std::vector<clk::RateSchedule>& schedules,
                    SimOptions options = SimOptions{},
                    const Protocol& protocol = Protocol{});

  NetworkSimulation(const NetworkSimulation&) = delete;
  NetworkSimulation& operator=(const NetworkSimulation&) = delete;

  void run_until(sim::Time t);
  // Forwards to Engine::every (ShardedEngine::every_global when sharded).
  void schedule_periodic(sim::Time start, sim::Duration period,
                         std::function<void(sim::Time)> fn);

  double logical_clock(NodeId u) const;
  double hardware_clock(NodeId u) const;
  // L_u - L_v at the current simulation time.
  double skew(NodeId u, NodeId v) const;
  // Whole-population clock sample at the current simulation time: the
  // hardware readings go into `logical`, and one kernel advance() turns
  // them into logical clocks in place.  Resized to size(); logical[i]
  // bit-matches logical_clock(i).
  void sample_clocks(std::vector<double>& logical) const;

  // Calls fn(u, v, up_time) for every live edge (u < v) in slot order,
  // which depends on the churn history, not on (u, v): use it only for
  // folds that ignore order (max, count).  The edge's real-time age is
  // now() - up_time.
  template <class Fn>
  void for_each_live_edge(Fn&& fn) const {
    for (const EdgeSlot& s : edge_slots_) {
      if (s.live) fn(s.u, s.v, s.up_time);
    }
  }
  // Instantaneous worst queue backlog (bytes) over all live link
  // directions -- the per-interval queue-depth gauge.  Max commutes, so
  // the slot-order edge walk is deterministic; 0.0 whenever no
  // finite-bandwidth pipeline is configured.  Safe at barriers/sample
  // times only (like the other whole-network accessors).
  double max_queue_backlog() const;

  // In sharded mode this is the last barrier time; shard-side callbacks
  // never call back into these accessors mid-window (the sampler and
  // topology hooks run at barriers, where the two notions coincide).
  sim::Time now() const { return sharded_ ? sharded_->now() : engine_.now(); }
  std::uint64_t events_executed() const {
    return sharded_ ? sharded_->events_executed() : engine_.events_executed();
  }
  // Events currently queued in the engine -- the "queue depth" a
  // per-interval observation stream wants.
  std::size_t engine_pending() const {
    return sharded_ ? sharded_->pending() : engine_.pending();
  }
  // Scheduler-health counters (high-water pending, calendar probes and
  // rebuilds); describes the scheduler, not the trajectory.
  sim::EngineStats engine_stats() const {
    return sharded_ ? sharded_->stats() : engine_.stats();
  }
  // Audit hook: at() calls that asked for a time in the past.  A correct
  // simulation never does; tests and the harness assert this stays zero.
  std::uint64_t engine_clamped_count() const {
    return sharded_ ? sharded_->clamped_count() : engine_.clamped_count();
  }
  const RunStats& stats() const;
  const SyncParams& params() const { return params_; }
  const BFunction& bfunc() const { return bfunc_; }
  std::size_t size() const { return store_.size(); }
  // The Algorithm 2 kernel driving this run (is_blocked_by, arena_bytes,
  // live_slots, ...).
  const DcsaColumns& store() const { return store_; }
  // The hardware-clock table every clock read goes through.
  const clk::ClockTable& clocks() const { return clocks_; }

 private:
  // One entry of the edge table.  A slot is filled when an edge comes up
  // and freed when it goes down; a freed slot is reused by the next edge
  // to come up, under a new incarnation.
  struct EdgeSlot {
    sim::Time up_time = 0.0;
    NodeId u = 0;  // normalized: u < v
    NodeId v = 0;
    std::uint32_t incarnation = 0;
    bool live = false;
  };
  static_assert(sizeof(EdgeSlot) == 24, "edge table entry grew");
  // An edge slot's per-direction FIFO state; dir[0] carries u -> v,
  // dir[1] the reverse.  Each direction is written only from its
  // sender's execution context (broadcasts and flow emissions on the
  // sender's shard, discovery exchanges at barriers), so sharded access
  // is race-free by ownership.
  struct LinkPair {
    net::LinkDir dir[2];
  };
  // Names one incarnation of one edge: it goes stale when that edge goes
  // down, even after another edge (or the same one, back up) refills the
  // slot.
  struct EdgeRef {
    std::uint32_t slot;
    std::uint32_t incarnation;
  };
  struct Delivery {
    NodeId from;
    NodeId to;
    double value;
    EdgeRef edge;
  };
  static_assert(sizeof(Delivery) == 24, "in-flight message record grew");
  // The one order-preserving DeliverySink (defined in the .cpp): it puts
  // stats, traces, and conformance checks around each record.
  struct Sink;
  // One execution context's counters: the RunStats fields that
  // compose_run_stats folds (sums, and the two maxima), each written
  // only by its context.  Padded so shards never share a line.
  struct alignas(64) Counters : RunStats {};

  // The edge a peer segment's tag names: segments hold live edges only.
  EdgeRef live_ref(std::uint32_t slot) const {
    return EdgeRef{slot, edge_slots_[slot].incarnation};
  }
  // True while the incarnation `r` names is still up.
  bool is_live(EdgeRef r) const {
    const EdgeSlot& s = edge_slots_[r.slot];
    return s.live && s.incarnation == r.incarnation;
  }
  // Which EdgeSlot::dir entry carries from -> to traffic.
  static int dir_index(NodeId from, NodeId to) { return from < to ? 0 : 1; }

  // Execution contexts and streams (see the file comment): node u runs
  // in ctx(u), barrier-side work (topology deltas, discovery exchanges)
  // in global_ctx(); u draws from and sums into stream(u).
  std::size_t ctx(NodeId u) const { return sharded_ ? shard_of_[u] : 0; }
  std::size_t global_ctx() const {
    return sharded_ ? sharded_->global_ctx() : 0;
  }
  std::size_t stream(NodeId u) const { return sharded_ ? u : 0; }

  // The universe boundary (see the file comment); everything else runs
  // the same code in both modes.
  template <class F>
  void at_node(NodeId u, sim::Time t, F&& fn) {
    if (sharded_) {
      sharded_->at(shard_of_[u], t, std::forward<F>(fn));
    } else {
      engine_.at(t, std::forward<F>(fn));
    }
  }
  template <class F>
  void at_global(sim::Time t, F&& fn) {
    if (sharded_) {
      sharded_->at_global(t, std::forward<F>(fn));
    } else {
      engine_.at(t, std::forward<F>(fn));
    }
  }
  // The current time in u's context.
  sim::Time node_now(NodeId u) const {
    return sharded_ ? sharded_->shard_now(shard_of_[u]) : engine_.now();
  }
  // Sharded mode clamps to BOTH halves of the delay contract: <= bound
  // (the algorithm's assumption) and >= floor (the lookahead the barrier
  // windows rest on), so a misbehaving sampler cannot smuggle an event
  // into the current window.
  double delay_lo() const { return sharded_ ? link_.prop.floor : 1e-12; }
  // Classic: stages `m` in outbox_ for the caller's flush_outbox().
  // Sharded: posts it as its own event under the canonical (t, send_t,
  // origin, index) merge key.
  void post_delivery(std::size_t c, sim::Time at, sim::Time send_t,
                     const Delivery& m);
  // Classic: hands `ev` to the recorder.  Sharded: buffers it in context
  // c under its canonical key; flush_trace() merges after run_until.
  // `node` is the emitting node, or kGlobalRecord for barrier-side
  // records.
  void emit(std::size_t c, NodeId node, const obs::TraceEvent& ev);
  static constexpr NodeId kGlobalRecord = ~NodeId{0};

  void apply_event(const net::TopologyEvent& ev);
  void add_edge(const net::Edge& e, sim::Time t, bool initial);
  void remove_edge(const net::Edge& e, sim::Time t);
  void schedule_broadcast(NodeId u);
  void broadcast(NodeId u);
  // Sends one message on the live edge `edge` from context c.  Every
  // caller must flush_outbox() before returning to the engine.
  void send(std::size_t c, NodeId from, NodeId to, EdgeRef edge,
            double value, sim::Time t);
  // Schedules the staged outbox: one event per distinct delivery instant
  // (batched) or per message (the reference).  A no-op when empty, which
  // sharded mode always is.
  void flush_outbox();
  // Stable-sorts outbox_ by delivery time without allocating once the
  // scratch below has grown to the largest broadcast.
  void sort_outbox();
  void deliver(const Delivery& m);
  // Same-instant coalesced deliveries of pooled batch `id`: drop-checks
  // every record up front (kernel callbacks never touch the edge set, so
  // the checks cannot go stale mid-batch), then feeds the accepted runs
  // to the kernel as contiguous on_deliveries batches, emitting drops at
  // their original positions -- byte-order-identical to per-record
  // delivery.  Returns the batch to the pool.
  void deliver_batch(std::uint32_t id);
  void drop(const Delivery& m, sim::Time t);
  // Per-delivery envelope audit of the edge the message `d` (tagged with
  // its edge slot) just crossed; `logical_to` is the receiver's logical
  // clock after the delivery, from the hardware reading it already took.
  void check_edge_conformance(const StoreDelivery& d, double logical_to);
  // Background-flow machinery (TrafficModel::has_flows()): start_flows
  // schedules the first emission for both directions of a fresh edge
  // (constructor or barrier context); flow_emit offers one packet/burst
  // to its direction's FIFO and reschedules itself in the sender's
  // context until the edge incarnation dies.  Flows draw no randomness --
  // the phase is a pure function of the edge key -- so they cannot
  // shift a single propagation draw.
  void start_flows(const net::Edge& e, EdgeRef edge, sim::Time t);
  void flow_emit(NodeId from, NodeId to, EdgeRef edge);
  // Offers `bytes` to the from -> to FIFO of edge slot `slot` and counts
  // the mark and backlog into `c`.
  net::LinkDecision offer(Counters& c, std::uint32_t slot, NodeId from,
                          NodeId to, sim::Time t, double bytes,
                          bool droppable);
  void flush_trace();
  void compose_run_stats() const;

  SyncParams params_;
  BFunction bfunc_;
  net::LinkModel link_;
  SimOptions options_;
  // Cached from options_.recorder: emission sites test one bool (and
  // trace_ already folds in wants_trace(), so a series-only recorder
  // costs nothing on the message path).
  obs::Recorder* recorder_;
  bool trace_;
  // Incremental interval-connectivity cursor over the schedule's
  // (T+D)-windows (owns its own copy of the schedule): each run_until
  // sweeps only the windows newly completed since the previous call, so
  // repeated incremental runs cost one pass total, not one per call.
  net::SnapshotUnionSweep audit_sweep_;

  sim::Engine engine_;
  // Sharded mode (options_.shards > 0): sharded_ replaces engine_
  // (which then stays empty) and nodes map onto shards in round-robin
  // blocks (shard_of above, cached in shard_of_).
  std::unique_ptr<sim::ShardedEngine> sharded_;
  std::vector<std::uint32_t> shard_of_;
  // Per-node running index of posted messages: the K-invariant
  // tiebreaker in the barrier-merge key.
  std::vector<std::uint64_t> node_msg_index_;
  // One slot per execution context, folded into stats_ at read time.
  std::vector<Counters> counters_;
  // Per stream: the delay RNG, and the jump and sync-delay sums.  Per-
  // node streams (sharded) keep sends on different shards from
  // contending for -- or K-variantly reordering draws from -- a shared
  // generator, and fold in node order, so the float addition order is
  // the same for every shard count.  A stream's Rng creates its engine
  // on the first draw, in whichever single context owns the node at
  // that moment, so a constant delay allocates no engines at all.
  std::vector<util::Rng> stream_rng_;
  std::vector<double> stream_jump_;
  std::vector<double> stream_sync_delay_;
  // Sharded trace buffers: on_trace calls must arrive in a K-invariant
  // order (TelemetryRecorder's decimation is order-sensitive), but
  // shards emit concurrently.  Each context buffers its records tagged
  // with a canonical sort key -- (t, globals-first, node, per-node
  // emission seq) -- and run_until merges and feeds them afterwards.
  struct PendingTrace {
    obs::TraceEvent ev;
    NodeId node = 0;
    std::uint64_t seq = 0;
  };
  std::vector<std::vector<PendingTrace>> trace_bufs_;
  std::vector<std::uint64_t> node_trace_seq_;
  std::uint64_t global_trace_seq_ = 0;
  // Every node's hardware clock (rows fill on first read, each by the
  // context that owns the node at that moment).
  clk::ClockTable clocks_;
  // All node state, in the kernel's flat arenas; each peer segment is
  // also its node's adjacency, tagged with the edges' slots.
  DcsaColumns store_;
  // The edge table.  The message path (send, delivery, flows, the
  // per-delivery audit) indexes it by a message's EdgeRef or a segment's
  // tag, and a topology delta by find_tag -- no hashing.  It changes only
  // at barriers (topology deltas) and in the constructor, so shards read
  // it mid-window freely.
  std::vector<EdgeSlot> edge_slots_;
  // The link pipeline's FIFO state, parallel to edge_slots_ -- and empty
  // unless TrafficModel::pipeline_active(), so an ideal link holds none.
  std::vector<LinkPair> link_dirs_;
  std::vector<std::uint32_t> free_slots_;  // reused last-freed first
  std::vector<double> next_broadcast_hw_;
  std::vector<double> last_logical_;  // monotonicity conformance
  // check_edge_conformance's last sender clock reading, keyed by (node,
  // instant): a broadcast's batch has one sender and one instant, so
  // the audit reads that hardware clock once per batch, not per record.
  // A reading is a pure function of (node, instant), so reusing it is
  // exact.
  NodeId audit_from_ = 0;
  sim::Time audit_t_ = -1.0;  // no reading yet: times are >= 0
  double audit_hw_ = 0.0;
  // Classic mode: messages staged by the current flush scope in send
  // order; flush_outbox groups them by exact delivery instant.
  std::vector<std::pair<sim::Time, Delivery>> outbox_;
  // sort_outbox's scratch for outboxes past the insertion-sort cutoff:
  // send positions in delivery order, and the outbox gathered in that
  // order (swapped with outbox_, so both keep their capacity).
  std::vector<std::uint32_t> outbox_order_;
  std::vector<std::pair<sim::Time, Delivery>> outbox_sorted_;
  // The batches of scheduled multi-message instants, pooled: an event
  // carries only its batch's index, and a delivered batch goes back on
  // the free list with its capacity, so steady-state broadcasts
  // allocate nothing.
  std::vector<std::vector<Delivery>> batches_;
  std::vector<std::uint32_t> free_batches_;
  // Scratch for deliver_batch's accepted runs (classic mode is
  // single-threaded, so one buffer serves every batch).
  std::vector<StoreDelivery> scratch_;
  // mutable because the const stats() accessor composes the counters
  // from counters_ and the stream sums.
  mutable RunStats stats_;
};

}  // namespace gcs::core

#endif  // GCS_CORE_NETWORK_SIM_HPP
