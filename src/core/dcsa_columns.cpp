#include "core/dcsa_columns.hpp"

#include <stdexcept>

namespace gcs::core {

DcsaColumns::DcsaColumns(const SyncParams& params, std::size_t n,
                         const Protocol& protocol)
    : bfunc_(protocol.tolerance.value_or(BFunction(params))),
      variant_(protocol.variant),
      kappa_((1.0 - params.rho) / (1.0 + params.rho)) {
  offset_.assign(n, 0.0);
  fast_.assign(n, 0);
  head_.assign(n, 0);
  count_.assign(n, 0);
  cap_.assign(n, 0);
}

void DcsaColumns::reserve_segments(const std::vector<net::Edge>& edges) {
  if (!slots_.peer.empty()) {
    throw std::logic_error(
        "DcsaColumns::reserve_segments: call before the first edge_up");
  }
  for (const net::Edge& e : edges) {
    ++cap_[e.u];
    ++cap_[e.v];
  }
  std::uint64_t next = 0;
  for (std::size_t u = 0; u < cap_.size(); ++u) {
    head_[u] = static_cast<std::uint32_t>(next);
    next += cap_[u];
  }
  if (next > kNpos) {
    throw std::length_error("DcsaColumns: more than 2^32 - 1 peer slots");
  }
  slots_.resize(static_cast<std::size_t>(next));
}

void DcsaColumns::start(const NodeContext& ctx) {
  offset_[ctx.self] = -ctx.hw_now;  // logical clock starts at 0
  fast_[ctx.self] = 0;
}

std::uint32_t DcsaColumns::find_slot(NodeId u, NodeId peer) const {
  const std::uint32_t head = head_[u];
  const std::uint32_t end = head + count_[u];
  for (std::uint32_t s = head; s < end; ++s) {
    if (slots_.peer[s] == peer) return s;
  }
  return kNpos;
}

bool DcsaColumns::find_tag(NodeId u, NodeId peer, std::uint32_t* tag) const {
  const std::uint32_t s = find_slot(u, peer);
  if (s == kNpos) return false;
  *tag = slots_.tag[s];
  return true;
}

void DcsaColumns::Slots::resize(std::size_t n) {
  peer.resize(n);
  hw_up.resize(n);
  has_est.resize(n);
  value.resize(n);
  hw_recv.resize(n);
  tag.resize(n);
}

void DcsaColumns::Slots::copy(std::uint32_t dst, const Slots& from,
                              std::uint32_t src) {
  peer[dst] = from.peer[src];
  hw_up[dst] = from.hw_up[src];
  has_est[dst] = from.has_est[src];
  value[dst] = from.value[src];
  hw_recv[dst] = from.hw_recv[src];
  tag[dst] = from.tag[src];
}

void DcsaColumns::reserve_slot(NodeId u) {
  if (count_[u] < cap_[u]) return;
  // Relocate the segment to the arena tail with double the capacity; the
  // old region becomes a hole that compaction reclaims.
  const std::uint32_t old_head = head_[u];
  const std::uint32_t old_count = count_[u];
  const std::uint32_t new_cap = cap_[u] ? cap_[u] * 2 : kInitialCap;
  const std::uint32_t new_head = static_cast<std::uint32_t>(slots_.peer.size());
  slots_.resize(new_head + new_cap);
  for (std::uint32_t i = 0; i < old_count; ++i) {
    slots_.copy(new_head + i, slots_, old_head + i);
  }
  hole_slots_ += cap_[u];
  head_[u] = new_head;
  cap_[u] = new_cap;
  maybe_compact();
}

void DcsaColumns::maybe_compact() {
  // Rebuild only when abandoned holes are worth reclaiming: at least a
  // quarter of the arena, and big enough in absolute terms to pay for
  // the rebuild.  The fraction must be < 1/2: doubling growth leaves a
  // relocated segment's full history (4+8+...+c/2 = c-4 holes) against
  // 2c-4 allocated slots, so holes approach but NEVER reach half the
  // arena -- a half threshold is unreachable dead code (a test pins
  // this by asserting compaction actually fires under churn).  Caps are
  // kept (they encode degree history), so a compaction never triggers
  // an immediate regrow.  Runs only from edge_up -- the simulator's
  // global context -- so no delivery can be scanning the arena
  // concurrently.
  if (hole_slots_ < 4096 || hole_slots_ * 4 < slots_.peer.size()) return;
  std::size_t total = 0;
  for (std::size_t u = 0; u < cap_.size(); ++u) total += cap_[u];
  Slots packed;
  packed.resize(total);
  std::uint32_t next = 0;
  for (std::size_t u = 0; u < cap_.size(); ++u) {
    const std::uint32_t old_head = head_[u];
    for (std::uint32_t i = 0; i < count_[u]; ++i) {
      packed.copy(next + i, slots_, old_head + i);
    }
    head_[u] = next;
    next += cap_[u];
  }
  slots_ = std::move(packed);
  hole_slots_ = 0;
}

void DcsaColumns::edge_up(const NodeContext& ctx, NodeId peer,
                          std::uint32_t tag) {
  const NodeId u = ctx.self;
  std::uint32_t s = find_slot(u, peer);
  if (s == kNpos) {
    reserve_slot(u);
    s = head_[u] + count_[u];
    ++count_[u];
    ++live_slots_;
    slots_.peer[s] = peer;
  }
  // Fresh edge state: no estimate yet, age counted from now.
  slots_.hw_up[s] = ctx.hw_now;
  slots_.has_est[s] = 0;
  slots_.value[s] = 0.0;
  slots_.hw_recv[s] = 0.0;
  slots_.tag[s] = tag;
}

void DcsaColumns::edge_down(const NodeContext& ctx, NodeId peer) {
  const NodeId u = ctx.self;
  const std::uint32_t s = find_slot(u, peer);
  if (s == kNpos) return;
  // Ordered erase: the survivors keep their edge-up order, which is the
  // simulator's broadcast order (see header).
  const std::uint32_t end = head_[u] + count_[u];
  for (std::uint32_t i = s; i + 1 < end; ++i) slots_.copy(i, slots_, i + 1);
  --count_[u];
  --live_slots_;
}

double DcsaColumns::unconstrained_target(NodeId u, double hw_now,
                                         double logical) const {
  const std::uint32_t head = head_[u];
  const std::uint32_t end = head + count_[u];
  double target = logical;
  for (std::uint32_t i = head; i < end; ++i) {
    if (!slots_.has_est[i]) continue;
    const double est = estimate_low(i, hw_now);
    target = target > est ? target : est;
  }
  return target;
}

double DcsaColumns::tolerance(std::uint32_t s, double hw_now) const {
  const double base = bfunc_(hw_now - slots_.hw_up[s]);
  if (variant_.rule != Variant::Rule::kWeighted) return base;
  const double floor = bfunc_.floor();
  return variant_.weight * floor + (base - floor);
}

bool DcsaColumns::is_blocked_by(NodeId u, NodeId peer, double hw_now) const {
  if (variant_.rule == Variant::Rule::kNoBlock ||
      variant_.rule == Variant::Rule::kNoJump) {
    return false;
  }
  const std::uint32_t s = find_slot(u, peer);
  if (s == kNpos || !slots_.has_est[s]) return false;
  const double target =
      unconstrained_target(u, hw_now, logical_clock(u, hw_now));
  return estimate_low(s, hw_now) + tolerance(s, hw_now) < target;
}

double DcsaColumns::apply_delivery(const StoreDelivery& d) {
  const NodeId u = d.to;
  const double hw_now = d.hw_now;
  // --- Estimate update: keep the strongest lower bound.  With variable
  // delays a message can arrive out of order, so only adopt it if it
  // beats the aged estimate.  A message from a peer whose edge vanished
  // mid-flight is stale input and updates nothing.
  const std::uint32_t s = find_slot(u, d.from);
  if (s != kNpos) {
    if (!(slots_.has_est[s] && estimate_low(s, hw_now) >= d.value)) {
      slots_.value[s] = d.value;
      slots_.hw_recv[s] = hw_now;
      slots_.has_est[s] = 1;
    }
  }
  if (variant_.rule == Variant::Rule::kNoJump) {
    fast_[u] = 0;
    return 0.0;
  }
  // --- Jump rule over the segment.  The folds are order-independent, so
  // segment order cannot matter.
  const double logical = hw_now + offset_[u];
  const double target = unconstrained_target(u, hw_now, logical);
  fast_[u] = target > logical ? 1 : 0;
  double cap = target;
  const std::uint32_t head = head_[u];
  const std::uint32_t end = head + count_[u];
  if (variant_.rule == Variant::Rule::kDcsa) {
    for (std::uint32_t i = head; i < end; ++i) {
      if (!slots_.has_est[i]) continue;  // covered by B(0) > G(n)
      const double allowed =
          estimate_low(i, hw_now) + bfunc_(hw_now - slots_.hw_up[i]);
      cap = cap < allowed ? cap : allowed;
    }
  } else if (variant_.rule == Variant::Rule::kWeighted) {
    for (std::uint32_t i = head; i < end; ++i) {
      if (!slots_.has_est[i]) continue;
      const double allowed = estimate_low(i, hw_now) + tolerance(i, hw_now);
      cap = cap < allowed ? cap : allowed;
    }
  }  // kNoBlock: no cap, the node jumps straight to its target.
  if (cap > logical) {
    offset_[u] += cap - logical;
    return cap - logical;
  }
  return 0.0;
}

void DcsaColumns::on_deliveries(const StoreDelivery* batch, std::size_t count,
                                DeliverySink& sink) {
  for (std::size_t i = 0; i < count; ++i) {
    const StoreDelivery& d = batch[i];
    sink.before(d);
    sink.after(d, apply_delivery(d));
  }
}

void DcsaColumns::advance(double* clocks, std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) clocks[i] += offset_[i];
}

std::size_t DcsaColumns::arena_bytes() const {
  const std::size_t per_node =
      sizeof(double) + sizeof(std::uint8_t) + 3 * sizeof(std::uint32_t);
  const std::size_t per_slot = sizeof(NodeId) + sizeof(std::uint8_t) +
                               3 * sizeof(double) + sizeof(std::uint32_t);
  return offset_.size() * per_node + slots_.peer.size() * per_slot;
}

}  // namespace gcs::core
