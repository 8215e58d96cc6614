// Test oracle for core::DcsaColumns: Algorithm 2 for ONE node, written
// the obvious way -- an ordered std::map of per-peer estimates and the
// catch-up/blocking rules as two plain folds -- for each of the four
// ablation variants.  tests/test_dcsa.cpp drives it in lockstep with the
// kernel and demands bit-identical jumps, clocks and fast-mode flags, so
// the flat arenas' segment bookkeeping (relocation, swap-remove,
// compaction) can never change the arithmetic.  See dcsa_columns.hpp for
// the algorithm itself.
#ifndef GCS_TESTS_DCSA_NODE_HPP
#define GCS_TESTS_DCSA_NODE_HPP

#include <map>

#include "core/bfunc.hpp"
#include "core/dcsa_columns.hpp"
#include "core/params.hpp"

namespace gcs::test {

using core::NodeContext;
using core::NodeId;

class DcsaNode {
 public:
  explicit DcsaNode(const core::SyncParams& params,
                    const core::Protocol& protocol = core::Protocol{})
      : bfunc_(protocol.tolerance.value_or(core::BFunction(params))),
        variant_(protocol.variant),
        kappa_((1.0 - params.rho) / (1.0 + params.rho)) {}

  void start(const NodeContext& ctx) {
    offset_ = -ctx.hw_now;  // logical clock starts at 0
  }

  void on_edge_up(const NodeContext& ctx, NodeId peer) {
    peers_[peer] = PeerState{ctx.hw_now, false, 0.0, 0.0};
  }

  void on_edge_down(const NodeContext& /*ctx*/, NodeId peer) {
    peers_.erase(peer);
  }

  void on_message(const NodeContext& ctx, NodeId from, double logical_value) {
    const double hw_now = ctx.hw_now;
    auto it = peers_.find(from);
    if (it == peers_.end()) return;  // edge vanished mid-flight
    PeerState& p = it->second;
    if (p.has_estimate && estimate_low(p, hw_now) >= logical_value) return;
    p.value = logical_value;
    p.hw_recv = hw_now;
    p.has_estimate = true;
  }

  double step(const NodeContext& ctx) {
    if (variant_.rule == Rule::kNoJump) {
      fast_ = false;
      return 0.0;
    }
    const double hw_now = ctx.hw_now;
    const double logical = logical_clock(hw_now);
    const double target = unconstrained_target(hw_now, logical);
    fast_ = target > logical;
    double cap = target;
    if (variant_.rule != Rule::kNoBlock) {
      for (const auto& [peer, state] : peers_) {
        (void)peer;
        if (!state.has_estimate) continue;
        const double allowed =
            estimate_low(state, hw_now) + tolerance(hw_now - state.hw_up);
        cap = cap < allowed ? cap : allowed;
      }
    }
    if (cap > logical) {
      offset_ += cap - logical;
      return cap - logical;
    }
    return 0.0;
  }

  double logical_clock(double hw_now) const { return hw_now + offset_; }
  bool fast_mode() const { return fast_; }

  bool is_blocked_by(NodeId peer, double hw_now) const {
    if (variant_.rule == Rule::kNoBlock || variant_.rule == Rule::kNoJump) {
      return false;
    }
    auto it = peers_.find(peer);
    if (it == peers_.end() || !it->second.has_estimate) return false;
    const double target = unconstrained_target(hw_now, logical_clock(hw_now));
    return estimate_low(it->second, hw_now) +
               tolerance(hw_now - it->second.hw_up) <
           target;
  }

 private:
  using Rule = core::Variant::Rule;

  struct PeerState {
    double hw_up = 0.0;  // our hardware clock when the edge appeared
    bool has_estimate = false;
    double value = 0.0;    // last received logical clock value
    double hw_recv = 0.0;  // our hardware clock at reception
  };

  double tolerance(double age) const {
    const double base = bfunc_(age);
    if (variant_.rule != Rule::kWeighted) return base;
    const double floor = bfunc_.floor();
    return variant_.weight * floor + (base - floor);
  }

  double estimate_low(const PeerState& p, double hw_now) const {
    return p.value + kappa_ * (hw_now - p.hw_recv);
  }

  double unconstrained_target(double hw_now, double logical) const {
    double target = logical;
    for (const auto& [peer, state] : peers_) {
      (void)peer;
      if (!state.has_estimate) continue;
      const double est = estimate_low(state, hw_now);
      target = target > est ? target : est;
    }
    return target;
  }

  core::BFunction bfunc_;
  core::Variant variant_;
  double kappa_;
  double offset_ = 0.0;
  bool fast_ = false;
  std::map<NodeId, PeerState> peers_;  // ordered: deterministic iteration
};

}  // namespace gcs::test

#endif  // GCS_TESTS_DCSA_NODE_HPP
