#include "baselines/global.hpp"

#include <algorithm>

#include "proto/payload_pool.hpp"
#include "proto/recovery_line.hpp"

namespace hc3i::baselines {

namespace {
constexpr std::uint64_t kCtl = 64;

using net::payload_as;
}  // namespace

// ---------------------------------------------------------------------------
// GlobalRuntime
// ---------------------------------------------------------------------------

GlobalRuntime::GlobalRuntime(const config::RunSpec& spec, bool hierarchical)
    : spec_(spec), hierarchical_(hierarchical) {
  spec_.validate();
}

proto::AgentFactory GlobalRuntime::factory() {
  return [this](const proto::AgentContext& ctx) {
    auto agent = std::make_unique<GlobalAgent>(ctx, *this);
    agents_.push_back(agent.get());
    return agent;
  };
}

// ---------------------------------------------------------------------------
// GlobalAgent
// ---------------------------------------------------------------------------

GlobalAgent::GlobalAgent(const proto::AgentContext& ctx, GlobalRuntime& rt)
    : AgentBase(ctx), rt_(rt) {}

proto::NodePart GlobalAgent::make_part() const {
  proto::NodePart part;
  part.app = ctx_.app->snapshot();
  return part;
}

void GlobalAgent::start() {
  if (!is_global_coordinator()) return;
  // One federation-wide period: the first cluster's timer drives the runs
  // (the paper's baselines have no per-cluster autonomy by construction).
  const SimTime period = rt_.spec().timers.clusters[0].clc_period;
  timer_ = std::make_unique<sim::Timer>(*ctx_.sim, period, /*periodic=*/true,
                                        [this] { on_timer(); });
  timer_->arm();
  ctx_.sim->schedule_after(SimTime::zero(), [this] { begin_round(); });
}

void GlobalAgent::on_timer() {
  if (round_active_ || rollback_pending_) return;
  begin_round();
}

void GlobalAgent::begin_round() {
  if (round_active_ || rollback_pending_) return;
  round_active_ = true;
  round_ = next_round_++;
  round_started_ = now();
  acked_.assign(ctx_.topology->node_count(), false);
  acks_received_ = 0;
  auto req = proto::make_pooled<GReq>();
  req->round = round_;
  req->inc = inc_;
  if (rt_.hierarchical()) {
    // Two-level: only the cluster coordinators are contacted over the WAN;
    // they broadcast locally ([9]'s relaxed synchronisation).
    for (std::size_t c = 0; c < rt_.cluster_count(); ++c) {
      send_control_or_local(
          coordinator_of(ClusterId{static_cast<std::uint32_t>(c)}), kCtl, req);
    }
  } else {
    // Flat: every node is contacted directly (WAN crossing per node).
    for (std::uint32_t n = 0; n < ctx_.topology->node_count(); ++n) {
      send_control_or_local(NodeId{n}, kCtl, req);
    }
  }
}

void GlobalAgent::handle_req(const GReq& m) {
  if (m.inc != inc_ || rollback_pending_) return;
  if (rt_.hierarchical() && is_cluster_coordinator() && m.round != cluster_round_) {
    // Relay into the cluster, then take our own tentative checkpoint.
    cluster_round_ = m.round;
    cluster_acked_.assign(ctx_.topology->cluster_size(cluster()), false);
    cluster_acks_ = 0;
    auto req = proto::make_pooled<GReq>();
    req->round = m.round;
    req->inc = inc_;
    broadcast_control(cluster(), kCtl, std::move(req), /*include_self=*/false);
  }
  take_tentative(m.round);
}

void GlobalAgent::take_tentative(std::uint64_t round) {
  if (in_round_) return;
  in_round_ = true;
  round_ = round;
  tentative_ = make_part();
  auto ack = proto::make_pooled<GAck>();
  ack->round = round;
  ack->inc = inc_;
  ack->node = self();
  const NodeId target = rt_.hierarchical() ? coordinator_of(cluster())
                                           : NodeId{0};
  send_control_or_local(target, kCtl, std::move(ack));
}

void GlobalAgent::handle_ack(const GAck& m) {
  if (m.inc != inc_) return;
  if (rt_.hierarchical()) {
    // Node acks always aggregate at the cluster coordinator (node 0 plays
    // both roles for cluster 0: it aggregates here and receives the
    // resulting GClusterAck as the global coordinator).
    if (m.round != cluster_round_) return;
    const std::uint32_t idx = local_index(m.node);
    if (cluster_acked_[idx]) return;
    cluster_acked_[idx] = true;
    if (++cluster_acks_ < cluster_acked_.size()) return;
    auto cack = proto::make_pooled<GClusterAck>();
    cack->round = cluster_round_;
    cack->inc = inc_;
    cack->cluster = cluster();
    send_control_or_local(NodeId{0}, kCtl, std::move(cack));
    return;
  }
  // Flat mode, at the global coordinator.
  if (!round_active_ || m.round != round_) return;
  if (acked_[m.node.v]) return;
  acked_[m.node.v] = true;
  if (++acks_received_ == acked_.size()) commit_round();
}

void GlobalAgent::handle_cluster_ack(const GClusterAck& m) {
  if (m.inc != inc_ || !round_active_ || m.round != round_) return;
  const std::uint32_t base = ctx_.topology->first_node(m.cluster).v;
  if (acked_[base]) return;  // duplicate cluster ack
  const std::uint32_t nodes = ctx_.topology->cluster_size(m.cluster);
  std::fill_n(acked_.begin() + base, nodes, true);
  acks_received_ += nodes;
  if (acks_received_ == acked_.size()) commit_round();
}

void GlobalAgent::commit_round() {
  const SeqNum new_sn = sn_ + 1;
  const std::uint64_t mark = ctx_.ledger->mark();
  // One record per cluster, all with the global SN; they replace the
  // previous global checkpoint.
  rt_.latest_.resize(rt_.cluster_count());
  for (std::size_t c = 0; c < rt_.cluster_count(); ++c) {
    const ClusterId cid{static_cast<std::uint32_t>(c)};
    proto::ClcRecord rec;
    rec.sn = new_sn;
    rec.ddv = proto::Ddv(rt_.cluster_count(), cid, new_sn);
    rec.commit_time = now();
    rec.ledger_mark = mark;
    rec.forced = false;
    // Every node acked, so every tentative part is captured: file them.
    const std::uint32_t base = ctx_.topology->first_node(cid).v;
    for (std::uint32_t i = 0; i < ctx_.topology->cluster_size(cid); ++i) {
      GlobalAgent& node = *rt_.agents()[base + i];
      HC3I_CHECK(node.tentative_.has_value(), "commit without all parts");
      rec.parts.push_back(std::move(*node.tentative_));
      node.tentative_.reset();
    }
    rt_.latest_[c] = std::move(rec);
    if (stat_clc_by_cluster_.size() <= c) {
      stat_clc_by_cluster_.resize(rt_.cluster_count(), {nullptr, nullptr});
    }
    auto& [clc_total, clc_unforced] = stat_clc_by_cluster_[c];
    stats::lazy_counter(*ctx_.registry, clc_total, [c] {
      return "clc.total.c" + std::to_string(c);
    }).inc();
    stats::lazy_counter(*ctx_.registry, clc_unforced, [c] {
      return "clc.unforced.c" + std::to_string(c);
    }).inc();
  }
  // Global channel state: every application message still in flight, in
  // MsgId order, plus every node's deferred arrivals.
  std::vector<net::Envelope> channel;
  for (std::uint32_t c = 0; c < rt_.cluster_count(); ++c) {
    std::vector<net::Envelope> sent = ctx_.network->app_in_flight(ClusterId{c});
    channel.insert(channel.end(), std::make_move_iterator(sent.begin()),
                   std::make_move_iterator(sent.end()));
  }
  std::sort(channel.begin(), channel.end(),
            [](const net::Envelope& a, const net::Envelope& b) {
              return a.id.v < b.id.v;
            });
  for (const GlobalAgent* a : rt_.agents()) {
    channel.insert(channel.end(), a->deferred_.begin(), a->deferred_.end());
  }
  rt_.latest_channel_ = std::move(channel);

  named_summary(stat_freeze_, "global.freeze_s")
      .add((now() - round_started_).seconds());
  round_active_ = false;
  auto commit = proto::make_pooled<GCommit>();
  commit->round = round_;
  commit->inc = inc_;
  commit->sn = new_sn;
  if (rt_.hierarchical()) {
    for (std::size_t c = 0; c < rt_.cluster_count(); ++c) {
      send_control_or_local(
          coordinator_of(ClusterId{static_cast<std::uint32_t>(c)}), kCtl,
          commit);
    }
  } else {
    for (std::uint32_t n = 0; n < ctx_.topology->node_count(); ++n) {
      send_control_or_local(NodeId{n}, kCtl, commit);
    }
  }
}

void GlobalAgent::handle_commit(const GCommit& m) {
  if (m.inc != inc_ || rollback_pending_) return;
  if (rt_.hierarchical() && is_cluster_coordinator() && m.round == cluster_round_) {
    // Relay the commit into the cluster once.
    cluster_round_ = 0;
    broadcast_control(cluster(), kCtl, proto::make_pooled<GCommit>(m),
                      /*include_self=*/false);
  }
  if (!in_round_ || m.round != round_) return;
  sn_ = m.sn;
  tentative_.reset();
  if (is_global_coordinator() && timer_) timer_->reset();
  end_round(
      [this](const QueuedSend& q) {
        send_app(q.dst, q.bytes, q.app_seq, {sn_, inc_, {}});
      },
      [this](const net::Envelope& env) { on_message(env); });
}

void GlobalAgent::app_send(NodeId dst, std::uint64_t bytes,
                           std::uint64_t app_seq) {
  if (gate_send(dst, bytes, app_seq) == SendGate::kPass) {
    send_app(dst, bytes, app_seq, {sn_, inc_, {}});
  }
}

void GlobalAgent::on_message(const net::Envelope& env) {
  if (env.cls == net::MsgClass::kApp) {
    // Stale pre-rollback traffic: whole-federation rollbacks undo every
    // send at or after the restored checkpoint.
    if (proto::undone_by_rollback(env.piggy.sn, env.piggy.incarnation, sn_,
                                  inc_)) {
      count_stale_drop();
      return;
    }
    if (!hold_arrival(env)) deliver_app(env);
    return;
  }
  if (const auto* m = payload_as<GReq>(env)) return handle_req(*m);
  if (const auto* m = payload_as<GAck>(env)) return handle_ack(*m);
  if (const auto* m = payload_as<GClusterAck>(env))
    return handle_cluster_ack(*m);
  if (const auto* m = payload_as<GCommit>(env)) return handle_commit(*m);
  HC3I_UNREACHABLE("GlobalAgent: unknown control payload");
}

void GlobalAgent::on_failure_detected(NodeId failed) {
  named_stat(stat_rollback_faults_, "rollback.faults").inc();
  (void)failed;
  global_rollback(cluster());
}

void GlobalAgent::global_rollback(ClusterId fault_cluster) {
  const Incarnation new_inc = rt_.bump_incarnation();
  HC3I_CHECK(!rt_.latest_.empty(), "no global checkpoint");

  // Everything in flight belongs to the undone epoch.
  ctx_.network->drop_in_flight(
      [](const net::Envelope& e) { return e.cls == net::MsgClass::kApp; });

  for (std::size_t c = 0; c < rt_.cluster_count(); ++c) {
    const ClusterId cid{static_cast<std::uint32_t>(c)};
    const proto::ClcRecord& rec = rt_.latest_[c];
    ctx_.ledger->undo_after(cid, rec.ledger_mark);
    count_rollback(ctx_.topology->cluster_size(cid), sn_, rec.sn);
    const std::uint32_t base = ctx_.topology->first_node(cid).v;
    // The fault cluster's record opens a recovery span; every other
    // cluster is dragged back like an alert rollback.
    HC3I_OBS(ctx_.obs, obs::RecordKind::kRollbackBegin, now(), cid.v, base,
             new_inc, rec.sn, cid == fault_cluster ? 0 : 1);
    for (std::uint32_t i = 0; i < ctx_.topology->cluster_size(cid); ++i) {
      rt_.agents()[base + i]->apply_rollback(rec, new_inc);
    }
  }

  // Resume all clusters after the slowest state transfer; re-inject the
  // global channel afterwards.
  SimTime delay = SimTime::zero();
  for (std::size_t c = 0; c < rt_.cluster_count(); ++c) {
    const ClusterId cid{static_cast<std::uint32_t>(c)};
    delay = std::max(delay, config::state_transfer_time(rt_.spec(), cid));
  }
  ctx_.sim->schedule_after(delay, [this, new_inc] {
    if (inc_ != new_inc) return;
    for (GlobalAgent* a : rt_.agents()) a->resume(rt_.latest_[a->cluster().v]);
    for (const net::Envelope& env : rt_.latest_channel_) {
      rt_.agents()[env.dst.v]->on_message(env);
    }
    // Every cluster resumed at the latest incarnation: this completes each
    // detected fault, including one whose own rollback this one superseded.
    for (std::size_t c = 0; c < rt_.cluster_count(); ++c) {
      ctx_.recovery_done(ClusterId{static_cast<std::uint32_t>(c)});
    }
  });
}

void GlobalAgent::apply_rollback(const proto::ClcRecord& rec,
                                 Incarnation new_inc) {
  sn_ = rec.sn;
  inc_ = new_inc;
  tentative_.reset();
  round_active_ = false;
  cluster_round_ = 0;
  if (timer_) timer_->cancel();
  freeze_for_rollback(rec.parts[local_index(self())].app);
}

void GlobalAgent::resume(const proto::ClcRecord& rec) {
  resume_from_rollback(rec.parts[local_index(self())].app, [this] {
    if (is_global_coordinator() && timer_) timer_->reset();
  });
}

}  // namespace hc3i::baselines
