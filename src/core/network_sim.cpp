#include "core/network_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gcs::core {

std::uint32_t shard_of(std::size_t u, std::size_t k, std::size_t n) {
  const std::size_t block = std::clamp<std::size_t>(n / k, 1, kShardBlock);
  return static_cast<std::uint32_t>((u / block) % k);
}

std::uint32_t next_incarnation(std::uint32_t current, std::uint32_t slot) {
  if (current == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error(
        "NetworkSimulation: edge slot " + std::to_string(slot) +
        " exhausted its 2^32 - 1 incarnations");
  }
  return current + 1;
}

// Stats, traces, and conformance checks around each record the kernel
// applies, written to the receivers' context `c` and stream: a sharded
// delivery is one record, and a classic batch is all one context and
// one stream.
struct NetworkSimulation::Sink : DeliverySink {
  Sink(NetworkSimulation* s, std::size_t ctx, std::size_t stream)
      : sim(s), c(ctx), counters(s->counters_[ctx]),
        jump_sum(s->stream_jump_[stream]) {}
  NetworkSimulation* sim;
  std::size_t c;
  Counters& counters;
  double& jump_sum;

  void before(const StoreDelivery& d) override {
    ++counters.messages_delivered;
    if (sim->trace_) {
      sim->emit(c, d.to, {obs::TraceEvent::Kind::kDeliver, d.now, d.from,
                          d.to, d.value, 0.0, false});
    }
  }

  void after(const StoreDelivery& d, double jump) override {
    if (jump > 0.0) {
      ++counters.jumps;
      jump_sum += jump;
      if (sim->trace_) {
        sim->emit(c, d.to, {obs::TraceEvent::Kind::kJump, d.now, d.to, d.from,
                            jump, 0.0, false});
      }
    }
    if (!sim->options_.check_conformance) return;
    const double logical = sim->store_.logical_clock(d.to, d.hw_now);
    // Envelope conformance compares BOTH endpoints' clocks, which a shard
    // may not read mid-window; sharded runs audit the envelope through
    // the harness sampler at barriers instead, so the per-delivery check
    // is skipped for EVERY shard count (keeping the counters
    // K-invariant).  Monotonicity is target-local and runs in both.
    if (!sim->sharded_) sim->check_edge_conformance(d, logical);
    if (logical < sim->last_logical_[d.to] - kConformanceSlack) {
      ++counters.conformance_monotonicity_failures;
    }
    sim->last_logical_[d.to] = logical;
  }
};

NetworkSimulation::NetworkSimulation(
    const SyncParams& params, net::DynamicGraph graph, net::LinkModel link,
    const std::vector<clk::RateSchedule>& schedules, SimOptions options,
    const Protocol& protocol)
    : params_(params),
      bfunc_(params),
      link_(std::move(link)),
      options_(options),
      recorder_(options.recorder),
      trace_(options.recorder != nullptr && options.recorder->wants_trace()),
      audit_sweep_(graph.initial_edges(), graph.events(),
                   params.T + params.D),
      clocks_(schedules),
      store_(params, graph.n(), protocol) {
  const std::size_t n = graph.n();
  if (schedules.size() != n) {
    throw std::invalid_argument(
        "NetworkSimulation: one RateSchedule per node required");
  }
  if (!link_.prop.sample) {
    throw std::invalid_argument("NetworkSimulation: delay model has no sampler");
  }
  // Each broadcast schedules the next one delta_h of hardware time later;
  // at delta_h <= 0 that is the same instant, and the run never advances.
  if (!(params_.delta_h > 0.0) || !std::isfinite(params_.delta_h)) {
    throw std::invalid_argument(
        "NetworkSimulation: delta_h must be finite and > 0, got " +
        std::to_string(params_.delta_h));
  }
  for (std::size_t i = 0; i < n; ++i) {
    store_.start(
        NodeContext{static_cast<NodeId>(i), clocks_.value_at(i, 0.0), 0.0});
  }
  last_logical_.assign(n, 0.0);

  if (options_.shards > 0) {
    if (options_.shards > 256) {
      throw std::invalid_argument(
          "NetworkSimulation: shards capped at 256 (one thread per shard)");
    }
    if (!(link_.prop.floor > 0.0)) {
      throw std::invalid_argument(
          "NetworkSimulation: sharded mode needs a delay model with a "
          "positive floor (the conservative lookahead window); use a "
          "constant delay or a uniform one with lo > 0");
    }
    if (link_.prop.floor > link_.prop.bound) {
      throw std::invalid_argument(
          "NetworkSimulation: delay floor exceeds its bound");
    }
    const std::size_t k = std::min<std::size_t>(options_.shards, n);
    // The lookahead window is the PROPAGATION floor even with a traffic
    // pipeline configured: queueing only adds delay on top of the
    // propagation draw, so total >= prop >= floor and the barrier-merge
    // contract holds under any load (see the class comment).
    sharded_ = std::make_unique<sim::ShardedEngine>(k, link_.prop.floor);
    shard_of_.resize(n);
    for (std::size_t u = 0; u < n; ++u) shard_of_[u] = shard_of(u, k, n);
    node_msg_index_.assign(n, 0);
    if (trace_) {
      trace_bufs_.resize(k + 1);
      node_trace_seq_.assign(n, 0);
      sharded_->on_barrier([this] { flush_trace(); });
    }
  }
  if (!sharded_ && link_.prop.constant) delivery_lane_ = engine_.add_lane();
  if (link_.traffic.has_flows()) {
    flow_lane_ = sharded_ ? sharded_->add_lane() : engine_.add_lane();
  }
  counters_.assign(global_ctx() + 1, Counters{});
  const std::size_t streams = sharded_ ? n : 1;
  stream_rng_.reserve(streams);
  for (std::size_t i = 0; i < streams; ++i) {
    stream_rng_.emplace_back(sharded_ ? util::mix_seed(options_.seed, i)
                                      : options_.seed);
  }
  stream_jump_.assign(streams, 0.0);
  stream_sync_delay_.assign(streams, 0.0);

  // Every buffer the run grows is sized here, from the schedule, so none
  // reallocates mid-run (see sim::Engine::reserve for why that matters).
  const net::ScheduleHighWater high = net::schedule_high_water(graph);
  store_.reserve_segments(graph.initial_edges(), high.degree_rise);
  edge_slots_.reserve(high.live_edges);
  if (link_.traffic.pipeline_active()) {
    link_dirs_.reserve(edge_slots_.capacity());
  }
  reserve_queues(graph);
  for (const net::Edge& e : graph.initial_edges()) add_edge(e, 0.0, true);
  for (const net::TopologyEvent& ev : graph.events()) {
    at_global(ev.at, [this, ev] { apply_event(ev); });
  }

  // Broadcast phases are staggered across the first delta_h so that
  // same-timestamp broadcast storms don't depend on node order.
  next_broadcast_hw_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    next_broadcast_hw_[i] =
        params_.delta_h * (static_cast<double>(i + 1) / static_cast<double>(n));
    schedule_broadcast(static_cast<NodeId>(i));
  }
}

void NetworkSimulation::reserve_queues(const net::DynamicGraph& graph) {
  const std::size_t n = graph.n();
  if (!sharded_) {
    // One pending broadcast per node plus every topology event.
    engine_.reserve(n + graph.events().size());
    return;
  }
  // A shard's queue holds one pending broadcast per node it owns;
  // deliveries ride the merge lane and topology events the globals.
  const std::size_t k = sharded_->shards();
  std::vector<std::size_t> owned(k, 0);
  for (std::size_t u = 0; u < n; ++u) ++owned[shard_of_[u]];
  for (std::size_t s = 0; s < k; ++s) sharded_->reserve(s, owned[s]);
  // A node broadcasts every delta_h of hardware time, so at least
  // delta_h / (1 + rho) of real time apart, and a window is at most the
  // delay floor long: one window stages at most per_window posts on each
  // direction of an edge.  Capped, as a hint may over-reserve but never
  // fail: an outbox past it grows as it would without one.
  constexpr double kMaxPerWindow = 64.0;
  const auto per_window = static_cast<std::size_t>(std::min(
      std::floor(link_.prop.floor * (1.0 + params_.rho) / params_.delta_h) +
          1.0,
      kMaxPerWindow));
  std::vector<std::size_t> directed(k * k, 0);
  for (const net::Edge& e : graph.initial_edges()) {
    ++directed[shard_of_[e.u] * k + shard_of_[e.v]];
    ++directed[shard_of_[e.v] * k + shard_of_[e.u]];
  }
  for (std::size_t src = 0; src < k; ++src) {
    for (std::size_t dst = 0; dst < k; ++dst) {
      sharded_->reserve_posts(src, dst, directed[src * k + dst] * per_window);
    }
  }
}

void NetworkSimulation::run_until(sim::Time t) {
  if (sharded_) {
    sharded_->run_until(t);
  } else {
    engine_.run_until(t);
  }
  if (engine_clamped_count() > 0) {
    stats_.first_clamped_time = sharded_ ? sharded_->first_clamped_time()
                                         : engine_.first_clamped_time();
    stats_.first_clamped_seq = sharded_ ? sharded_->first_clamped_seq()
                                        : engine_.first_clamped_seq();
  }
  // Audit the paper's standing assumption over the (T+D)-windows newly
  // completed by this call; the sweep's delta cursor makes repeated
  // incremental run_until calls cost one schedule pass in total, and
  // each union is visited in place, never copied.
  while (audit_sweep_.next(now())) {
    ++stats_.connectivity_windows_checked;
    if (!net::is_connected(audit_components_, store_.size(),
                           [this](const auto& fn) {
          audit_sweep_.for_each_union_edge(fn);
        })) {
      ++stats_.connectivity_windows_disconnected;
    }
  }
}

void NetworkSimulation::schedule_periodic(
    sim::Time start, sim::Duration period, std::function<void(sim::Time)> fn) {
  // Samplers may read any node's state, so in sharded mode they are
  // globals: they fire at barriers with every shard parked.
  if (sharded_) {
    sharded_->every_global(start, period, std::move(fn));
  } else {
    engine_.every(start, period, std::move(fn));
  }
}

double NetworkSimulation::logical_clock(NodeId u) const {
  return store_.logical_clock(u, clocks_.value_at(u, now()));
}

double NetworkSimulation::hardware_clock(NodeId u) const {
  return clocks_.value_at(u, now());
}

double NetworkSimulation::skew(NodeId u, NodeId v) const {
  return logical_clock(u) - logical_clock(v);
}

void NetworkSimulation::sample_clocks(std::vector<double>& logical) const {
  const std::size_t n = store_.size();
  logical.resize(n);
  const sim::Time t = now();
  for (std::size_t i = 0; i < n; ++i) logical[i] = clocks_.value_at(i, t);
  store_.advance(logical.data(), n);
}

double NetworkSimulation::max_queue_backlog() const {
  const net::TrafficModel& m = link_.traffic;
  if (!m.pipeline_active() || m.bandwidth <= 0.0) return 0.0;
  const sim::Time t = now();
  double worst = 0.0;  // residual busy time; max commutes, slot order ok
  for (std::size_t i = 0; i < edge_slots_.size(); ++i) {
    if (!edge_slots_[i].live) continue;
    worst = std::max(worst, link_dirs_[i].dir[0].busy_until - t);
    worst = std::max(worst, link_dirs_[i].dir[1].busy_until - t);
  }
  return std::max(0.0, worst) * m.bandwidth;
}

void NetworkSimulation::apply_event(const net::TopologyEvent& ev) {
  const sim::Time t = now();
  ++counters_[global_ctx()].topology_events_applied;
  if (trace_) {
    emit(global_ctx(), kGlobalRecord,
         {obs::TraceEvent::Kind::kTopology, t, ev.edge.u, ev.edge.v, 0.0, 0.0,
          ev.add});
  }
  if (ev.add) {
    add_edge(ev.edge, t, false);
  } else {
    remove_edge(ev.edge, t);
  }
}

void NetworkSimulation::add_edge(const net::Edge& e, sim::Time t,
                                 bool initial) {
  std::uint32_t slot;
  if (store_.find_tag(e.u, e.v, &slot)) return;  // redundant add
  const bool pipeline = link_.traffic.pipeline_active();
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(edge_slots_.size());
    edge_slots_.emplace_back();
    if (pipeline) link_dirs_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    if (pipeline) link_dirs_[slot] = LinkPair{};
  }
  EdgeSlot& s = edge_slots_[slot];
  const EdgeRef ref{slot, next_incarnation(s.incarnation, slot)};
  s = EdgeSlot{t, e.u, e.v, ref.incarnation, true};
  const double hw_u = clocks_.value_at(e.u, t);
  const double hw_v = clocks_.value_at(e.v, t);
  store_.edge_up(NodeContext{e.u, hw_u, t}, e.v, slot);
  store_.edge_up(NodeContext{e.v, hw_v, t}, e.u, slot);
  if (!initial) {
    // Discovery exchange: both endpoints immediately send their clocks on
    // the new edge, so it carries an estimate within one delay bound.
    // Topology deltas run in the global context (shards parked), so
    // reading either endpoint's clock here is safe for any partition.
    const std::size_t c = global_ctx();
    send(c, e.u, e.v, ref, store_.logical_clock(e.u, hw_u), t);
    send(c, e.v, e.u, ref, store_.logical_clock(e.v, hw_v), t);
    flush_outbox();
  }
  // Background flows ride every edge incarnation, initial ones included;
  // they stop by themselves when this incarnation dies.
  start_flows(e, ref, t);
}

void NetworkSimulation::remove_edge(const net::Edge& e, sim::Time t) {
  std::uint32_t slot;
  if (!store_.find_tag(e.u, e.v, &slot)) return;  // redundant remove
  edge_slots_[slot].live = false;
  free_slots_.push_back(slot);
  store_.edge_down(NodeContext{e.u, clocks_.value_at(e.u, t), t}, e.v);
  store_.edge_down(NodeContext{e.v, clocks_.value_at(e.v, t), t}, e.u);
}

void NetworkSimulation::schedule_broadcast(NodeId u) {
  const sim::Time when = clocks_.time_when(u, next_broadcast_hw_[u]);
  at_node(u, when, [this, u] { broadcast(u); });
}

void NetworkSimulation::broadcast(NodeId u) {
  // Runs in u's context: u's clock, node state, and RNG stream are
  // owner-local; u's peer segment and edge_slots_ only ever change at
  // barriers, so reading them mid-window is race-free.
  const std::size_t c = ctx(u);
  const sim::Time t = node_now(u);
  const double value = store_.logical_clock(u, clocks_.value_at(u, t));
  store_.for_each_peer(u, [&](NodeId peer, std::uint32_t slot) {
    send(c, u, peer, live_ref(slot), value, t);
  });
  flush_outbox();
  next_broadcast_hw_[u] += params_.delta_h;
  schedule_broadcast(u);
}

void NetworkSimulation::send(std::size_t c, NodeId from, NodeId to,
                             EdgeRef edge, double value, sim::Time t) {
  const std::size_t st = stream(from);
  double d = link_.prop.sample(net::Edge(from, to), stream_rng_[st]);
  d = std::clamp(d, delay_lo(), link_.prop.bound);
  Counters& counters = counters_[c];
  // Through the link pipeline: queue wait + transmission time on top of
  // the propagation draw (bit-exactly d when no finite bandwidth is
  // configured -- the ideal-link degeneration the link-equivalence
  // matrix holds shut).  Sync messages are never queue-dropped -- their
  // latency saturates at the bound instead, preserving the delay <= T
  // assumption the proofs rest on.  The pipeline only ADDS delay, so the
  // sharded lookahead contract survives any traffic model; a direction
  // is written only from its sender's context, so no lock is needed.
  const net::TrafficModel& m = link_.traffic;
  if (m.pipeline_active() && m.bandwidth > 0.0) {
    const net::LinkDecision dec = offer(counters, edge.slot, from, to, t,
                                        m.sync_bytes, /*droppable=*/false);
    d = std::min(dec.wait + dec.tx + d, link_.prop.bound);
  }
  stream_sync_delay_[st] += d;
  counters.sync_delay_max = std::max(counters.sync_delay_max, d);
  ++counters.messages_sent;
  if (trace_) {
    emit(c, from,
         {obs::TraceEvent::Kind::kSend, t, from, to, value, t + d, false});
  }
  post_delivery(c, t + d, t, Delivery{from, to, value, edge});
}

inline void NetworkSimulation::post_delivery(std::size_t c, sim::Time at,
                                      sim::Time send_t, const Delivery& m) {
  if (!sharded_) {
    outbox_.emplace_back(at, m);
    return;
  }
  ++counters_[c].delivery_events;
  sharded_->post(c, shard_of_[m.to], at,
                 sim::PostKey{send_t, m.from, node_msg_index_[m.from]++},
                 [this, m] { deliver(m); });
}

void NetworkSimulation::sort_outbox() {
  // Stable by delivery time, without std::stable_sort's temporary
  // buffer.  A stable sort's output is unique, so every branch yields the
  // same order.  Small outboxes (most broadcasts) take an in-place
  // insertion sort; a large one (a star hub, a complete graph) sorts
  // send positions by (time, position) in reusable scratch, keeping it
  // O(d log d).  Constant delays leave the outbox already sorted.
  constexpr std::size_t kInsertionSortMax = 32;
  const std::size_t d = outbox_.size();
  if (d <= kInsertionSortMax) {
    for (std::size_t i = 1; i < d; ++i) {
      const std::pair<sim::Time, Delivery> x = outbox_[i];
      std::size_t j = i;
      for (; j > 0 && x.first < outbox_[j - 1].first; --j) {
        outbox_[j] = outbox_[j - 1];
      }
      outbox_[j] = x;
    }
    return;
  }
  const auto by_time = [](const std::pair<sim::Time, Delivery>& a,
                          const std::pair<sim::Time, Delivery>& b) {
    return a.first < b.first;
  };
  if (std::is_sorted(outbox_.begin(), outbox_.end(), by_time)) return;
  outbox_order_.resize(d);
  for (std::size_t i = 0; i < d; ++i) {
    outbox_order_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(outbox_order_.begin(), outbox_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const sim::Time ta = outbox_[a].first;
              const sim::Time tb = outbox_[b].first;
              return ta < tb || (ta == tb && a < b);
            });
  outbox_sorted_.clear();
  for (const std::uint32_t i : outbox_order_) {
    outbox_sorted_.push_back(outbox_[i]);
  }
  outbox_.swap(outbox_sorted_);
}

void NetworkSimulation::flush_outbox() {
  if (outbox_.empty()) return;
  // Group by exact delivery instant.  The sort is stable so same-instant
  // messages keep their send order -- that, plus the fact that distinct
  // instants are ordered by time regardless of seq, is what makes
  // batched delivery trajectory-identical to the per-message reference,
  // which schedules every message on its own in send order.
  const bool batched = options_.batched_delivery;
  if (batched) sort_outbox();
  for (std::size_t i = 0; i < outbox_.size();) {
    std::size_t j = i + 1;
    while (batched && j < outbox_.size() &&
           outbox_[j].first == outbox_[i].first) {
      ++j;
    }
    ++counters_[0].delivery_events;
    if (j == i + 1) {
      // Uncoalesced instant (the common case under continuous delay
      // distributions): skip the batch, schedule the delivery directly.
      engine_.at(outbox_[i].first,
                 [this, m = outbox_[i].second] { deliver(m); },
                 delivery_lane_);
    } else {
      std::uint32_t id;
      if (free_batches_.empty()) {
        id = static_cast<std::uint32_t>(batches_.size());
        batches_.emplace_back();
      } else {
        id = free_batches_.back();
        free_batches_.pop_back();
      }
      std::vector<Delivery>& batch = batches_[id];
      for (std::size_t k = i; k < j; ++k) batch.push_back(outbox_[k].second);
      engine_.at(outbox_[i].first, [this, id] { deliver_batch(id); },
                 delivery_lane_);
    }
    i = j;
  }
  outbox_.clear();
}

void NetworkSimulation::deliver(const Delivery& m) {
  const sim::Time t = node_now(m.to);
  if (!is_live(m.edge)) {
    drop(m, t);
    return;
  }
  const StoreDelivery d{m.from, m.to, m.value, clocks_.value_at(m.to, t), t,
                        m.edge.slot};
  Sink sink(this, ctx(m.to), stream(m.to));
  store_.on_deliveries(&d, 1, sink);
}

void NetworkSimulation::deliver_batch(std::uint32_t id) {
  // Delivery never sends, so batches_ cannot grow under this reference.
  std::vector<Delivery>& batch = batches_[id];
  const sim::Time t = engine_.now();
  Sink sink(this, 0, 0);  // classic: one context, one stream
  scratch_.clear();
  const auto flush = [&] {
    if (scratch_.empty()) return;
    store_.on_deliveries(scratch_.data(), scratch_.size(), sink);
    scratch_.clear();
  };
  for (const Delivery& m : batch) {
    if (!is_live(m.edge)) {
      // Emit the drop at its original position in the batch: flush the
      // accepted run so far, then count/trace the drop.
      flush();
      drop(m, t);
      continue;
    }
    scratch_.push_back(StoreDelivery{m.from, m.to, m.value,
                                     clocks_.value_at(m.to, t), t,
                                     m.edge.slot});
  }
  flush();
  batch.clear();
  free_batches_.push_back(id);
}

void NetworkSimulation::drop(const Delivery& m, sim::Time t) {
  const std::size_t c = ctx(m.to);
  ++counters_[c].messages_dropped;
  if (trace_) {
    emit(c, m.to,
         {obs::TraceEvent::Kind::kDrop, t, m.from, m.to, m.value, 0.0, false});
  }
}

net::LinkDecision NetworkSimulation::offer(Counters& c, std::uint32_t slot,
                                           NodeId from, NodeId to, sim::Time t,
                                           double bytes, bool droppable) {
  const net::LinkDecision dec =
      net::link_offer(link_.traffic, link_dirs_[slot].dir[dir_index(from, to)],
                      t, bytes, droppable);
  if (dec.marked) ++c.ecn_marks;
  // Checked: past 2^53 the byte count is no longer a whole number a
  // double holds exactly (and past 2^64 the cast is undefined).
  if (!(dec.backlog_bytes <= net::kMaxBacklogBytes)) {
    throw std::overflow_error(
        "NetworkSimulation: link backlog of " +
        std::to_string(dec.backlog_bytes) +
        " bytes exceeds 2^53 bytes; lower the traffic sizes or raise 'bw'");
  }
  c.peak_queue_bytes = std::max(c.peak_queue_bytes,
                                static_cast<std::uint64_t>(dec.backlog_bytes));
  return dec;
}

void NetworkSimulation::start_flows(const net::Edge& e, EdgeRef edge,
                                    sim::Time t) {
  if (!link_.traffic.has_flows()) return;
  const double period = link_.traffic.flow_period();
  const std::uint64_t key = (std::uint64_t{e.u} << 32) | e.v;
  const NodeId ends[2][2] = {{e.u, e.v}, {e.v, e.u}};
  for (int i = 0; i < 2; ++i) {
    const NodeId from = ends[i][0];
    const NodeId to = ends[i][1];
    // Stable per-direction phase in (0, 1) periods: staggers flow starts
    // across links without drawing randomness.  add_edge runs at barriers
    // (or in the constructor) with every shard parked, so scheduling on
    // the sender's shard is allowed.
    const sim::Time first =
        t + period * net::flow_phase(2 * key + static_cast<std::uint64_t>(i));
    at_node(from, first, [this, from, to, edge] { flow_emit(from, to, edge); });
  }
}

void NetworkSimulation::flow_emit(NodeId from, NodeId to, EdgeRef edge) {
  if (!is_live(edge)) return;  // the edge (incarnation) died; so does the flow
  const sim::Time t = node_now(from);
  Counters& c = counters_[ctx(from)];
  const net::LinkDecision dec =
      offer(c, edge.slot, from, to, t, link_.traffic.flow_bytes(),
            link_.traffic.flow_droppable());
  ++c.traffic_packets;
  if (dec.dropped) ++c.traffic_dropped;
  at_node(from, t + link_.traffic.flow_period(),
          [this, from, to, edge] { flow_emit(from, to, edge); }, flow_lane_);
}

void NetworkSimulation::buffer_trace(std::size_t c, NodeId node,
                                     const obs::TraceEvent& ev) {
  const std::uint64_t seq = node == kGlobalRecord ? global_trace_seq_++
                                                  : node_trace_seq_[node]++;
  trace_bufs_[c].push_back(PendingTrace{ev, node, seq});
}

void NetworkSimulation::flush_trace() {
  // The canonical emission order (see PendingTrace): this reproduces the
  // sequence a single-threaded sharded run interleaves naturally --
  // same-time records order globals first, then by node, then by that
  // node's own emission order -- so the recorder sees identical streams
  // for every shard count.  Keys are unique, so the order is total.
  // Each flush orders one barrier round's records, and the rounds
  // concatenate in that order: the shards have emitted every record
  // before the barrier b, and the globals at b run after the flush,
  // ahead of the shard records at b.
  const auto earlier = [](const PendingTrace& a, const PendingTrace& b) {
    if (a.ev.t != b.ev.t) return a.ev.t < b.ev.t;
    const bool ga = a.node == kGlobalRecord;
    const bool gb = b.node == kGlobalRecord;
    if (ga != gb) return ga;
    if (a.node != b.node) return a.node < b.node;
    return a.seq < b.seq;
  };
  const auto later_head = [&earlier](const auto& x, const auto& y) {
    return earlier(*y.first, *x.first);
  };
  auto& heads = trace_heads_;
  heads.clear();
  for (std::deque<PendingTrace>& buf : trace_bufs_) {
    std::sort(buf.begin(), buf.end(), earlier);
    if (!buf.empty()) heads.emplace_back(buf.cbegin(), buf.cend());
  }
  std::make_heap(heads.begin(), heads.end(), later_head);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later_head);
    auto& [next, end] = heads.back();
    recorder_->on_trace((next++)->ev);
    if (next == end) {
      heads.pop_back();
    } else {
      std::push_heap(heads.begin(), heads.end(), later_head);
    }
  }
  for (std::deque<PendingTrace>& buf : trace_bufs_) buf.clear();
}

const RunStats& NetworkSimulation::stats() const {
  compose_run_stats();
  stats_.arena_bytes = store_.arena_bytes();
  return stats_;
}

void NetworkSimulation::compose_run_stats() const {
  // Every counter folds over the context slots: sums commute, and so do
  // the two maxima, so each fold is K-invariant.  With one slot (classic)
  // each fold is that slot's value.
  static constexpr std::uint64_t RunStats::*kSums[] = {
      &RunStats::messages_sent,        &RunStats::messages_delivered,
      &RunStats::messages_dropped,     &RunStats::delivery_events,
      &RunStats::jumps,                &RunStats::topology_events_applied,
      &RunStats::conformance_checks,   &RunStats::conformance_envelope_failures,
      &RunStats::conformance_monotonicity_failures,
      &RunStats::traffic_packets,      &RunStats::traffic_dropped,
      &RunStats::ecn_marks};
  for (const auto field : kSums) {
    stats_.*field = 0;
    for (const Counters& c : counters_) stats_.*field += c.*field;
  }
  stats_.peak_queue_bytes = 0;
  stats_.sync_delay_max = 0.0;
  for (const Counters& c : counters_) {
    stats_.peak_queue_bytes = std::max(stats_.peak_queue_bytes,
                                       c.peak_queue_bytes);
    stats_.sync_delay_max = std::max(stats_.sync_delay_max, c.sync_delay_max);
  }
  // Per-stream float sums folded in stream order keep the addition order
  // -- and the serialized double -- shard-count-invariant (and, with one
  // stream, equal to the event-order sum: 0.0 + s == s).
  stats_.total_jump = 0.0;
  for (const double jump : stream_jump_) stats_.total_jump += jump;
  stats_.sync_delay_sum = 0.0;
  for (const double d : stream_sync_delay_) stats_.sync_delay_sum += d;
}

void NetworkSimulation::check_edge_conformance(const StoreDelivery& d,
                                               double logical_to) {
  // The delivery was accepted and kernel callbacks never touch the edge
  // set, so the slot still holds the edge the message crossed.
  const EdgeSlot& s = edge_slots_[d.tag];
  Counters& c = counters_[0];  // classic only: one context
  ++c.conformance_checks;
  const double allowed =
      audit_envelope(bfunc_, params_.rho, d.now - s.up_time).allowed;
  // |L_u - L_v| in either order is the same double.  The sender's
  // offset is read per record: a sender that jumped earlier in this
  // batch (an edge-up exchange delivers both ways at once) must read
  // exactly what logical_clock(d.from) would.
  if (d.from != audit_from_ || d.now != audit_t_) {
    audit_from_ = d.from;
    audit_t_ = d.now;
    audit_hw_ = clocks_.value_at(d.from, d.now);
  }
  const double observed =
      std::abs(store_.logical_clock(d.from, audit_hw_) - logical_to);
  const bool violated = observed > allowed;
  if (violated) ++c.conformance_envelope_failures;
  if (trace_) {
    emit(0, d.to, {obs::TraceEvent::Kind::kConformance, d.now, s.u, s.v,
                   observed, allowed, violated});
  }
}

}  // namespace gcs::core
