// gcs::core -- DcsaColumns: Algorithm 2 of Kuhn-Locher-Oshman (SPAA'09),
// the dynamic clock synchronization automaton (DCSA), for every node of a
// run at once, in struct-of-arrays form.  This is the only implementation
// of the algorithm; NetworkSimulation drives it directly.
//
// Each node keeps a logical clock L that advances at its hardware rate
// (slow mode) and may additionally JUMP forward (the discrete realization
// of fast mode) when it learns of larger clocks.  The two rules:
//
//   * Catch-up: the node tracks, per neighbour, a conservative lower
//     bound on the neighbour's current logical clock (last received value
//     aged at rate (1-rho)/(1+rho) of its own hardware clock, so the
//     estimate can never overshoot the truth).  The unconstrained jump
//     target is the max over these estimates.
//
//   * Blocking: the node must not leave any neighbour behind by more than
//     the edge's tolerance B(age), where age is the edge's age on the
//     node's hardware clock.  The jump is capped at
//         min over neighbours w of  est_low(w) + B(age_w),
//     and because est_low is a lower bound, the realized skew toward w
//     never exceeds B.  A neighbour whose cap binds strictly below the
//     unconstrained target BLOCKS the node (is_blocked_by); a node whose
//     cap sits below its own clock cannot jump at all and free-runs at
//     its hardware rate.  Because B(0) > G(n), a brand-new edge can never
//     block (Lemma 6.10) -- the crippled tolerances in bench_ablation
//     break exactly this property.
//
// Clocks never run backwards: the jump delta is always >= 0.
//
// The ablation variants are parameters of the same kernel (Variant,
// chosen once per run): `weighted` scales the steady floor of every
// edge's tolerance by a uniform weight w, `noblock` drops the blocking
// cap, `nojump` drops the catch-up rule.  Every variant still receives
// and ages estimates, so message cost is identical across them.
//
// Layout: node state lives in flat columns (one offset, one fast-mode
// flag per node); per-edge estimate state lives in a single slot arena
// carved into per-node segments, CSR-style: node u's peers occupy slots
// [head_[u], head_[u] + count_[u]) of the parallel columns {peer, hw_up,
// has_estimate, value, hw_recv, tag}.  reserve_segments lays the
// initial segments out back to back in one counting pass, each at its
// node's initial degree (21 B per node plus 33 B per peer slot: a ring
// costs 87 B/node, with no holes).  Segments grow by relocation to the
// arena tail (amortized doubling from kInitialCap) and the arena
// compacts when abandoned holes pile up past a quarter of it, so a
// million-node churn run costs a handful of contiguous allocations
// instead of a million std::map instances.
//
// Peer lookup is a linear scan of the segment: DCSA degree is bounded in
// every scaling workload (ring backbones plus volatile edges), and for
// single-digit degrees the scan beats any hash on both time and memory.
// A segment doubles as the simulator's adjacency: NetworkSimulation
// broadcasts along for_each_peer and finds an edge's slot with find_tag
// (the tag is a word edge_up stores and the kernel never reads).
// Segment order is edge-up order, NOT peer order, kept by edge_down's
// ordered erase: it is the send order, so the order of the delay draws
// (the kernel's own folds ignore it).  tests/test_dcsa.cpp pins it and
// holds the kernel bit-equal to a per-node std::map oracle for all four
// variants.
#ifndef GCS_CORE_DCSA_COLUMNS_HPP
#define GCS_CORE_DCSA_COLUMNS_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "core/bfunc.hpp"
#include "core/params.hpp"
#include "net/topology.hpp"

namespace gcs::core {

using NodeId = net::NodeId;

// Who is being driven, what its hardware clock reads, and when
// (simulation time) the reading was taken.  Nodes never see real time,
// exactly as in the paper's model; `now` is for observability only.
struct NodeContext {
  NodeId self = 0;
  double hw_now = 0.0;  // the node's own hardware-clock reading
  double now = 0.0;     // simulation time of the reading (diagnostic)
};

// One message record in a delivery batch.  The simulator resolves the
// receiver's hardware clock before handing the batch over, so the kernel
// never touches clocks.
struct StoreDelivery {
  NodeId from = 0;
  NodeId to = 0;
  double value = 0.0;   // sender's logical clock, sampled at send time
  double hw_now = 0.0;  // receiver's hardware clock at delivery
  double now = 0.0;     // simulation time of delivery
  // Opaque to the kernel: handed back to the sink untouched (the
  // simulator puts the edge slot the message crossed here).
  std::uint32_t tag = 0;
};

// Order-preserving hooks around each record of a batch: before() fires
// ahead of the record's estimate update (where the kDeliver trace goes),
// after() fires once the jump rule ran, carrying the jump applied (where
// jump statistics and conformance checks go).
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void before(const StoreDelivery& d) = 0;
  virtual void after(const StoreDelivery& d, double jump) = 0;
};

// The ablation variant a run executes.
struct Variant {
  enum class Rule : std::uint8_t {
    kDcsa,      // Algorithm 2 as published
    kWeighted,  // matured edges tolerate weight * b0 instead of b0
    kNoBlock,   // catch-up without the blocking cap
    kNoJump,    // free-running clocks (no catch-up at all)
  };
  Rule rule = Rule::kDcsa;
  // kWeighted only: the uniform tolerance weight in (0, 1].  Only the
  // steady floor is scaled; the decaying B(0) - b0 = G headroom of a
  // young edge is untouched, so Lemma 6.10 survives the extension.
  double weight = 1.0;
};

// What a run executes: the variant plus the tolerance function B, which
// defaults to BFunction(params).  bench_ablation passes a crippled B.
struct Protocol {
  Variant variant;
  std::optional<BFunction> tolerance;
};

class DcsaColumns {
 public:
  DcsaColumns(const SyncParams& params, std::size_t n,
              const Protocol& protocol = Protocol{});

  std::size_t size() const { return offset_.size(); }

  // Sizes every node's segment to its degree in `edges` (an edge listed
  // twice counts twice), back to back in node order, so the edge_up
  // calls that bring those edges up relocate nothing.  Call once,
  // before the first edge_up; a node left at degree 0 gets kInitialCap
  // slots at the arena tail on its first edge_up, as without this call.
  // `degree_rise`, when not empty, bounds by node how far each degree
  // will later rise above it (net::schedule_high_water); the arena's
  // capacity then covers every relocation up to those degrees as if none
  // were compacted away (a compaction only shrinks the arena), so its
  // columns never reallocate mid-run.
  void reserve_segments(const std::vector<net::Edge>& edges,
                        const std::vector<std::uint32_t>& degree_rise = {});

  // Lifecycle + topology inputs (always delivered through the
  // simulator's barrier/global context, never concurrently).
  void start(const NodeContext& ctx);
  void edge_up(const NodeContext& ctx, NodeId peer, std::uint32_t tag = 0);
  void edge_down(const NodeContext& ctx, NodeId peer);

  // Calls fn(peer, tag) for each of u's live peers in edge-up order.
  template <class Fn>
  void for_each_peer(NodeId u, Fn&& fn) const {
    const std::uint32_t end = head_[u] + count_[u];
    for (auto s = head_[u]; s < end; ++s) fn(slots_.peer[s], slots_.tag[s]);
  }
  // True iff `peer` is in u's segment; then *tag is its edge_up tag.
  bool find_tag(NodeId u, NodeId peer, std::uint32_t* tag) const;

  // Apply `count` delivery records IN ORDER: for each record, call
  // sink.before(d), update the receiver's estimate of the sender and run
  // the jump rule, then call sink.after(d, jump).  Records for distinct
  // receivers may be driven concurrently by different shards, but never
  // two records for the same receiver.
  void on_deliveries(const StoreDelivery* batch, std::size_t count,
                     DeliverySink& sink);

  // Whole-population logical-clock read, in place: clocks[i] holds node
  // i's hardware reading on entry and L_i of it on return, for all
  // `count == size()` nodes.  Pure -- state between inputs is a clock
  // free-running at hardware rate, so advancing it is a read.
  void advance(double* clocks, std::size_t count) const;

  double logical_clock(NodeId u, double hw_now) const {
    return hw_now + offset_[u];
  }
  // True while u wants to advance beyond its hardware rate (Algorithm
  // 2's fast mode).
  bool fast_mode(NodeId u) const { return fast_[u] != 0; }

  // True iff `peer`'s tolerance cap currently binds strictly below u's
  // unconstrained jump target: the peer is holding u back.  Always false
  // under noblock and nojump, which apply no cap.
  bool is_blocked_by(NodeId u, NodeId peer, double hw_now) const;

  // Bytes of node/peer state held in the flat arenas; surfaces in
  // RunStats::arena_bytes so memory regressions are diffable.
  std::size_t arena_bytes() const;

  const BFunction& tolerance_fn() const { return bfunc_; }
  // Live peer-slot count across all segments (tests/diagnostics).
  std::size_t live_slots() const { return live_slots_; }

 private:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInitialCap = 4;

  // Absolute slot of (u, peer), or kNpos.
  std::uint32_t find_slot(NodeId u, NodeId peer) const;
  // Ensure u's segment has room for one more slot (relocate/grow).
  void reserve_slot(NodeId u);
  void maybe_compact();

  // Lower bound on the peer's current logical clock.  Real time elapsed
  // since reception is at least (hw_now - hw_recv)/(1+rho), and the
  // peer's clock advances at rate >= 1-rho and never jumps backwards.
  double estimate_low(std::uint32_t s, double hw_now) const {
    return slots_.value[s] + kappa_ * (hw_now - slots_.hw_recv[s]);
  }
  // Max over u's estimates and `logical`: the unconstrained jump target.
  double unconstrained_target(NodeId u, double hw_now, double logical) const;
  // Edge tolerance of slot s under the dcsa/weighted rules.
  double tolerance(std::uint32_t s, double hw_now) const;
  // Estimate update + jump rule for one record; returns the jump applied.
  double apply_delivery(const StoreDelivery& d);

  BFunction bfunc_;
  Variant variant_;
  double kappa_;

  // Per-node columns.
  std::vector<double> offset_;
  std::vector<std::uint8_t> fast_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> cap_;

  // The peer-slot arena (parallel columns).
  struct Slots {
    std::vector<NodeId> peer;
    std::vector<double> hw_up;
    std::vector<std::uint8_t> has_est;
    std::vector<double> value;
    std::vector<double> hw_recv;
    std::vector<std::uint32_t> tag;
    void resize(std::size_t n);
    void reserve(std::size_t n);
    void copy(std::uint32_t dst, const Slots& from, std::uint32_t src);
  };
  Slots slots_;

  std::size_t live_slots_ = 0;  // sum of count_
  std::size_t hole_slots_ = 0;  // abandoned by relocation
};

}  // namespace gcs::core

#endif  // GCS_CORE_DCSA_COLUMNS_HPP
