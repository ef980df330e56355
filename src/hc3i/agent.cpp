#include "hc3i/agent.hpp"

#include <algorithm>
#include <span>

#include "obs/trace.hpp"
#include "proto/payload_pool.hpp"
#include "proto/recovery_line.hpp"

namespace hc3i::core {

namespace {
using net::payload_as;
}  // namespace

Hc3iAgent::Hc3iAgent(const proto::AgentContext& ctx, Hc3iRuntime& rt)
    : AgentBase(ctx), rt_(rt),
      ddv_(rt.cluster_count(), ctx.cluster, 0) {
  log_.attach_tally(&rt.log_tally(ctx.cluster));
  // known_rollbacks_ stays empty (size 0) until the first alert arrives:
  // failure-free runs — and most nodes of any run — never pay its per-node
  // per-cluster allocation.
}

std::uint32_t Hc3iAgent::replicas_needed() const {
  return store().replication();
}

proto::NodePart Hc3iAgent::make_part() {
  proto::NodePart part;
  if (rt_.backend(cluster()) != nullptr) {
    // Storage is modelled: consume the app's dirty-range watermark so
    // successive captures form base + Σ deltas chains (a full image when
    // incremental capture is disabled or no base exists yet).
    part.app = ctx_.app->snapshot(rt_.storage_spec(cluster()).incremental
                                      ? storage::CaptureMode::kIncremental
                                      : storage::CaptureMode::kFull);
  } else {
    part.app = ctx_.app->snapshot();
  }
  HC3I_CHECK(part.app.state_bytes == rt_.spec().application.state_bytes,
             "make_part: app state_bytes disagrees with the declared spec");
  // Both captures are copy-on-write images: O(1) refcount bumps unless the
  // underlying state changed since the previous checkpoint (DedupSet sorts
  // once per mutation epoch — checkpoint parts are protocol state, so the
  // canonical order is part of bit-reproducibility).
  part.dedup = dedup_.capture();
  part.log = log_.capture();
  return part;
}

void Hc3iAgent::note_log_highwater() {
  const proto::LogTally& tally = rt_.log_tally(cluster());
  cluster_stat(stat_log_max_entries_, "log.max_entries").raise(tally.entries);
  cluster_stat(stat_log_max_unacked_, "log.max_unacked").raise(tally.unacked);
}

// ---------------------------------------------------------------------------
// Protocol-variant hooks (HC3I defaults)
// ---------------------------------------------------------------------------

bool Hc3iAgent::cic_should_force(const net::Envelope& env) const {
  // Paper §3.2: force iff a CLC has been stored in the sender's cluster
  // since the last communication from it — i.e. the piggybacked SN is
  // fresher than our DDV entry.
  return env.piggy.sn > ddv_.at(env.src_cluster);
}

void Hc3iAgent::on_inter_delivered(const net::Envelope&) {
  // HC3I keeps DDV updates synchronised with forced-CLC commits; nothing
  // happens at delivery time.
}

const proto::ClcRecord* Hc3iAgent::rollback_target(ClusterId f,
                                                   SeqNum restored_sn) const {
  return proto::rollback_target(std::span(store().records()), ddv_, f,
                                restored_sn);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void Hc3iAgent::start() {
  if (!is_cluster_coordinator()) return;
  const SimTime period = rt_.spec().timers.clusters[cluster().v].clc_period;
  clc_timer_ = std::make_unique<sim::Timer>(*ctx_.sim, period, /*periodic=*/true,
                                            [this] { on_clc_timer(); });
  clc_timer_->arm();
  // "Each cluster stores a first CLC which is the beginning of the
  // application" (paper §4).
  ctx_.sim->schedule_after(SimTime::zero(), [this] {
    coordinator_begin_round(RoundReason::kInitial);
  });

  // The centralized garbage collector: cluster 0's coordinator, unless the
  // GC period is infinite.
  if (cluster().v == 0 && !rt_.spec().timers.gc_period.is_infinite()) {
    gc_timer_ = std::make_unique<sim::Timer>(*ctx_.sim,
                                             rt_.spec().timers.gc_period,
                                             /*periodic=*/true,
                                             [this] { on_gc_timer(); });
    gc_timer_->arm();
  }
}

// ---------------------------------------------------------------------------
// Application sends (paper Fig. 2: the agent catches every message)
// ---------------------------------------------------------------------------

void Hc3iAgent::app_send(NodeId dst, std::uint64_t bytes,
                         std::uint64_t app_seq) {
  // "Between the request and the commit messages, application messages are
  // queued" (paper §3.1); a frozen application cannot send at all.
  switch (gate_send(dst, bytes, app_seq)) {
    case SendGate::kPass:
      do_send(dst, bytes, app_seq);
      return;
    case SendGate::kQueued:
      cluster_stat(stat_queued_sends_, "clc.queued_sends").inc();
      return;
    case SendGate::kDropped:
      return;
  }
}

void Hc3iAgent::do_send(NodeId dst, std::uint64_t bytes,
                        std::uint64_t app_seq) {
  net::Piggyback piggy{sn_, inc_, {}};
  const bool inter = ctx_.topology->cluster_of(dst) != cluster();
  if (inter && rt_.options().transitive_ddv) {
    // The cluster's DDV is immutable within a (SN, incarnation) epoch, so
    // assigning it is an inline memcpy (or a refcount bump once spilled);
    // commits and rollbacks mutate through the COW barrier and never touch
    // piggybacks already in flight.
    piggy.ddv = ddv_;
  }
  const net::Envelope sent = send_app(dst, bytes, app_seq, piggy);
  if (inter) {
    // Optimistic sender-side log (paper §3.3).
    log_.add(sent);
    note_log_highwater();
  }
}

// ---------------------------------------------------------------------------
// Receive dispatch
// ---------------------------------------------------------------------------

void Hc3iAgent::on_message(const net::Envelope& env) {
  if (env.cls == net::MsgClass::kApp) {
    on_app_message(env);
  } else {
    on_control_message(env);
  }
}

void Hc3iAgent::on_app_message(const net::Envelope& env) {
  if (!env.intra_cluster() && is_stale(env)) {
    // A pre-rollback message from an undone epoch of the sender; the new
    // incarnation will re-send it (docs/paper_map.md, "Incarnations").
    count_stale_drop();
    return;
  }
  // Held while the application is frozen for a rollback, or until the 2PC
  // commit (both directions are frozen during a round).
  if (hold_arrival(env)) return;
  if (env.intra_cluster()) {
    deliver_app(env);
  } else {
    receive_inter_app(env);
  }
}

void Hc3iAgent::on_control_message(const net::Envelope& env) {
  if (const auto* m = payload_as<ClcRequest>(env)) return handle_clc_request(*m);
  if (const auto* m = payload_as<ReplicaStore>(env))
    return handle_replica_store(env, *m);
  if (const auto* m = payload_as<ReplicaAck>(env)) return handle_replica_ack(*m);
  if (const auto* m = payload_as<ClcAck>(env)) return handle_clc_ack(*m);
  if (const auto* m = payload_as<ClcCommit>(env)) return handle_clc_commit(*m);
  if (const auto* m = payload_as<ClcDemand>(env)) return handle_clc_demand(*m);
  if (const auto* m = payload_as<InterAck>(env)) return handle_inter_ack(*m);
  if (const auto* m = payload_as<RollbackAlert>(env))
    return handle_rollback_alert(*m);
  if (const auto* m = payload_as<AlertRelay>(env)) return handle_alert_relay(*m);
  if (const auto* m = payload_as<GcRequest>(env))
    return handle_gc_request(env, *m);
  if (const auto* m = payload_as<GcResponse>(env)) return handle_gc_response(*m);
  if (const auto* m = payload_as<GcCollect>(env)) return handle_gc_collect(*m);
  if (const auto* m = payload_as<GcPrune>(env)) return handle_gc_prune(*m);
  HC3I_UNREACHABLE("Hc3iAgent: unknown control payload");
}

// ---------------------------------------------------------------------------
// Communication-induced checkpointing (paper §3.2)
// ---------------------------------------------------------------------------

bool Hc3iAgent::is_stale(const net::Envelope& env) const {
  // Stale iff a known rollback of the sender cluster undid the send.
  if (known_rollbacks_.empty()) return false;  // no alert ever received
  const auto& rollbacks = known_rollbacks_[env.src_cluster.v];
  return std::any_of(rollbacks.begin(), rollbacks.end(), [&](const auto& rb) {
    return proto::undone_by_rollback(env.piggy.sn, env.piggy.incarnation,
                                     rb.restored, rb.inc);
  });
}

void Hc3iAgent::receive_inter_app(const net::Envelope& env) {
  if (dedup_.contains(env.app_seq)) {
    // Duplicate of an already-delivered message (a re-send raced with the
    // original copy). Re-acknowledge so the sender's log entry settles.
    ctx_.registry->counter("cic.dup_dropped").inc();
    auto ack = proto::make_pooled<InterAck>();
    ack->msg = env.id;
    ack->ack_sn = sn_;
    ack->ack_inc = inc_;
    send_control(env.src, ControlSizes::kSmall, std::move(ack));
    return;
  }
  if (cic_should_force(env)) {
    // Fresh sender SN: a CLC has been stored in the sender's cluster since
    // the last communication — force a CLC before delivery (paper §3.2).
    wait_force_.push_back(env);
    cluster_stat(stat_forced_triggers_, "cic.forced_triggers").inc();
    send_demand(env.src_cluster, env.piggy.sn, env.piggy.ddv);
    return;
  }
  deliver_and_ack(env);
}

void Hc3iAgent::deliver_and_ack(const net::Envelope& env) {
  dedup_.insert(env.app_seq);
  on_inter_delivered(env);
  deliver_app(env);
  // "Inter-cluster messages are acknowledged with the local SN" at delivery
  // time (paper §4 figure note; +1 relative to the pre-forced-CLC value).
  auto ack = proto::make_pooled<InterAck>();
  ack->msg = env.id;
  ack->ack_sn = sn_;
  ack->ack_inc = inc_;
  send_control(env.src, ControlSizes::kSmall, std::move(ack));
}

void Hc3iAgent::send_demand(ClusterId from, SeqNum sn,
                            const proto::Ddv& observed_ddv) {
  auto demand = proto::make_pooled<ClcDemand>();
  demand->inc = inc_;
  demand->from_cluster = from;
  demand->observed_sn = sn;
  if (rt_.options().transitive_ddv) {
    demand->observed_ddv = observed_ddv;
  }
  send_control_or_local(coordinator_of(cluster()),
                        ControlSizes::kSmall +
                            observed_ddv.size() * ControlSizes::kPerDdvEntry,
                        std::move(demand));
}

void Hc3iAgent::drain_wait_queue() {
  std::vector<net::Envelope> still_waiting;
  for (const net::Envelope& env : wait_force_) {
    if (is_stale(env)) {
      count_stale_drop();
      continue;
    }
    if (!cic_should_force(env)) {
      if (!dedup_.contains(env.app_seq)) deliver_and_ack(env);
    } else {
      still_waiting.push_back(env);
    }
  }
  wait_force_ = std::move(still_waiting);
}

void Hc3iAgent::handle_clc_demand(const ClcDemand& m) {
  if (m.inc != inc_) return;  // pre-rollback demand
  auto& slot = pending_raises_[m.from_cluster.v];
  slot = std::max(slot, m.observed_sn);
  if (rt_.options().transitive_ddv && !m.observed_ddv.empty()) {
    proto::Ddv observed = m.observed_ddv;
    observed.set(cluster(), 0);  // never raise our own entry from a peer
    if (!pending_merge_) {
      pending_merge_ = std::move(observed);
    } else {
      pending_merge_->merge_max(observed);
    }
  }
  if (!round_active_ && !rollback_pending_) {
    coordinator_begin_round(RoundReason::kForced);
  }
  // An active round absorbs the demand: the raise is folded into its commit
  // (safe because the triggering message is stashed, not delivered, so no
  // tentative snapshot depends on it).
}

// ---------------------------------------------------------------------------
// Intra-cluster two-phase commit (paper §3.1)
// ---------------------------------------------------------------------------

void Hc3iAgent::on_clc_timer() {
  if (round_active_ || rollback_pending_) return;
  coordinator_begin_round(RoundReason::kTimer);
}

void Hc3iAgent::coordinator_begin_round(RoundReason reason) {
  HC3I_CHECK(is_cluster_coordinator(), "begin_round on non-coordinator");
  if (round_active_ || rollback_pending_) return;
  round_active_ = true;
  round_reason_ = reason;
  active_round_id_ = next_round_++;
  acked_.assign(ctx_.topology->cluster_size(cluster()), false);
  acks_received_ = 0;
  auto req = proto::make_pooled<ClcRequest>();
  req->round = active_round_id_;
  req->inc = inc_;
  HC3I_OBS(ctx_.obs, obs::RecordKind::kClcRoundBegin, now(), cluster().v,
           self().v, active_round_id_,
           reason == RoundReason::kForced ? 1 : 0);
  broadcast_control(cluster(), ControlSizes::kSmall, std::move(req),
                    /*include_self=*/true);
}

void Hc3iAgent::handle_clc_request(const ClcRequest& m) {
  if (m.inc != inc_ || rollback_pending_) return;
  if (in_round_) {
    // Overtaken commit (see pending_request_): hold the newer round's
    // request; a re-broadcast of the current round stays a no-op.
    if (m.round > round_) pending_request_ = m;
    return;
  }
  in_round_ = true;
  round_ = m.round;
  replica_acks_ = 0;
  // Tentative local checkpoint (phase 1) + stable-storage replica write.
  tentative_ = make_part();
  const storage::Backend* be = rt_.backend(cluster());
  if (be == nullptr) {
    finish_capture();
    return;
  }
  // Charge the capture write to the storage backend: the node stalls until
  // its (full or delta) image is persisted, which delays its phase-1 ack
  // and therefore stretches the whole round — checkpoint cost surfaces as
  // time the application spends with messages queued.
  const std::uint64_t bytes = tentative_->app.delta_bytes;
  const std::uint64_t saved = tentative_->app.state_bytes - bytes;
  cluster_stat(stat_ckpt_bytes_, "ckpt.bytes_written").inc(bytes);
  named_stat(stat_g_ckpt_bytes_, "ckpt.bytes_written").inc(bytes);
  if (saved > 0) {
    cluster_stat(stat_ckpt_saved_, "ckpt.bytes_delta_saved").inc(saved);
    named_stat(stat_g_ckpt_saved_, "ckpt.bytes_delta_saved").inc(saved);
  }
  const SimTime stall = be->node_write_time(bytes);
  const std::uint64_t stall_us = static_cast<std::uint64_t>(stall.ns / 1000);
  cluster_stat(stat_ckpt_stall_, "ckpt.stall_us").inc(stall_us);
  named_stat(stat_g_ckpt_stall_, "ckpt.stall_us").inc(stall_us);
  HC3I_OBS(ctx_.obs, obs::RecordKind::kCkptWrite, now(), cluster().v, self().v,
           round_, bytes, static_cast<std::uint64_t>(stall.ns));
  const Incarnation round_inc = inc_;
  const std::uint64_t round_id = round_;
  ctx_.sim->schedule_after(stall, [this, round_inc, round_id] {
    // A rollback mid-write aborts the round (the incarnation bump or the
    // cleared in_round_ flag filters the stale completion).
    if (inc_ != round_inc || !in_round_ || round_ != round_id) return;
    finish_capture();
  });
}

void Hc3iAgent::finish_capture() {
  HC3I_CHECK(tentative_.has_value(), "finish_capture without a capture");
  if (replicas_needed() == 0) {
    send_phase1_ack();
    return;
  }
  // The replica transfer carries the captured image across the SAN — the
  // whole process state, or just the delta when storage models incremental
  // capture.
  const std::uint64_t replica_bytes = rt_.backend(cluster()) != nullptr
                                          ? tentative_->app.delta_bytes
                                          : rt_.spec().application.state_bytes;
  for (std::uint32_t r = 1; r <= replicas_needed(); ++r) {
    auto rs = proto::make_pooled<ReplicaStore>();
    rs->round = round_;
    rs->inc = inc_;
    rs->origin = self();
    send_control(ctx_.topology->ring_neighbour(self(), r), replica_bytes,
                 std::move(rs));
  }
}

void Hc3iAgent::handle_replica_store(const net::Envelope& env,
                                     const ReplicaStore& m) {
  if (m.inc != inc_) return;
  auto ack = proto::make_pooled<ReplicaAck>();
  ack->round = m.round;
  ack->inc = inc_;
  send_control(env.src, ControlSizes::kSmall, std::move(ack));
}

void Hc3iAgent::handle_replica_ack(const ReplicaAck& m) {
  if (m.inc != inc_ || !in_round_ || m.round != round_) return;
  if (++replica_acks_ == replicas_needed()) send_phase1_ack();
}

void Hc3iAgent::send_phase1_ack() {
  auto ack = proto::make_pooled<ClcAck>();
  ack->round = round_;
  ack->inc = inc_;
  ack->node = self();
  send_control_or_local(coordinator_of(cluster()), ControlSizes::kSmall,
                        std::move(ack));
}

void Hc3iAgent::handle_clc_ack(const ClcAck& m) {
  if (m.inc != inc_ || !round_active_ || m.round != active_round_id_) return;
  const std::uint32_t idx = local_index(m.node);
  HC3I_CHECK(idx < acked_.size(), "ClcAck from foreign node");
  if (acked_[idx]) return;  // duplicate
  acked_[idx] = true;
  ++acks_received_;
  if (ProtocolObserver* ob = rt_.observer()) {
    // Phase-targeted fault injection observes the ack/commit window here.
    ob->on_phase1_ack(cluster(), active_round_id_,
                      static_cast<std::uint32_t>(acks_received_),
                      static_cast<std::uint32_t>(acked_.size()));
  }
  HC3I_OBS(ctx_.obs, obs::RecordKind::kClcAck, now(), cluster().v, m.node.v,
           active_round_id_, acks_received_, acked_.size());
  if (acks_received_ == acked_.size()) coordinator_commit_round();
}

void Hc3iAgent::coordinator_commit_round() {
  const SeqNum new_sn = sn_ + 1;
  const std::vector<Hc3iAgent*>& nodes = rt_.cluster_agents(cluster());
  // The committed DDV is the max of the nodes' views.  Each node holds its
  // deliveries from capture to commit, so its view now is the one it acked
  // with; under HC3I every view is the last commit's shared block, and each
  // merge returns at once.
  proto::Ddv new_ddv = ddv_;
  for (const Hc3iAgent* node : nodes) new_ddv.merge_max(node->ddv_);
  new_ddv.set(cluster(), new_sn);
  for (const auto& [c, s] : pending_raises_) {
    new_ddv.raise(ClusterId{c}, s);
  }
  if (pending_merge_) {
    // Transitive extension (paper §7): fold the piggybacked DDVs in, never
    // lowering our own entry.
    pending_merge_->set(cluster(), new_sn);
    new_ddv.merge_max(*pending_merge_);
  }
  pending_raises_.clear();
  pending_merge_.reset();

  proto::ClcRecord rec;
  rec.sn = new_sn;
  rec.ddv = new_ddv;
  rec.commit_time = now();
  rec.ledger_mark = ctx_.ledger->mark();
  rec.forced = round_reason_ == RoundReason::kForced;
  // Every node acked, so every tentative part is captured: file them.
  rec.parts.reserve(nodes.size());
  for (Hc3iAgent* node : nodes) {
    HC3I_CHECK(node->tentative_.has_value(), "commit without all parts");
    rec.parts.push_back(std::move(*node->tentative_));
    node->tentative_.reset();
  }
  if (rt_.options().capture_channel_state) {
    // Channel state: intra-cluster application messages that are in the
    // network, parked, or held in a node's deferred queue at this instant.
    // (A real implementation gathers the same set with flush markers over
    // the FIFO SAN; see docs/paper_map.md.)
    const ClusterId c = cluster();
    rec.channel = ctx_.network->app_in_flight(c);
    std::erase_if(rec.channel, [c](const net::Envelope& e) {
      return e.dst_cluster != c;
    });
    for (const Hc3iAgent* peer : rt_.cluster_agents(c)) {
      for (const net::Envelope& e : peer->deferred_) {
        if (e.intra_cluster()) rec.channel.push_back(e);
      }
    }
  }
  store().commit(std::move(rec));

  cluster_stat(stat_clc_total_, "clc.total").inc();
  switch (round_reason_) {
    case RoundReason::kInitial:
      cluster_stat(stat_clc_initial_, "clc.initial").inc();
      break;
    case RoundReason::kTimer:
      cluster_stat(stat_clc_unforced_, "clc.unforced").inc();
      break;
    case RoundReason::kForced:
      cluster_stat(stat_clc_forced_, "clc.forced").inc();
      break;
  }
  cluster_stat(stat_store_max_clcs_, "store.max_clcs").raise(store().size());
  cluster_stat(stat_store_max_bytes_, "store.max_bytes")
      .raise(store().storage_bytes());
  HC3I_OBS(ctx_.obs, obs::RecordKind::kClcCommit, now(), cluster().v, self().v,
           active_round_id_, static_cast<std::uint64_t>(new_sn),
           round_reason_ == RoundReason::kForced ? 1 : 0);

  round_active_ = false;
  auto commit = proto::make_pooled<ClcCommit>();
  commit->round = active_round_id_;
  commit->inc = inc_;
  commit->sn = new_sn;
  commit->ddv = new_ddv;
  broadcast_control(cluster(),
                    ControlSizes::kSmall +
                        new_ddv.size() * ControlSizes::kPerDdvEntry,
                    std::move(commit), /*include_self=*/true);
  if (ProtocolObserver* ob = rt_.observer()) {
    ob->on_clc_commit(cluster(), new_sn,
                      round_reason_ == RoundReason::kForced);
  }
}

void Hc3iAgent::handle_clc_commit(const ClcCommit& m) {
  if (m.inc != inc_ || rollback_pending_) return;
  if (!in_round_ || m.round != round_) return;  // aborted round
  sn_ = m.sn;
  ddv_ = m.ddv;
  tentative_.reset();
  if (is_cluster_coordinator() && clc_timer_) {
    // "The timer is reset when a forced CLC is established" (paper §5.2) —
    // on timer-driven CLCs the period naturally restarts too.
    clc_timer_->reset();
  }
  // Drain everything frozen during the round: sends first (they carry the
  // new SN), then arrivals, then the forced-CLC stash.
  end_round(
      [this](const QueuedSend& q) { do_send(q.dst, q.bytes, q.app_seq); },
      [this](const net::Envelope& env) { on_app_message(env); });
  drain_wait_queue();
  if (pending_request_) {
    // The next round's request overtook this commit on the SAN; join it now
    // that the round it raced is settled.
    const ClcRequest held = *pending_request_;
    pending_request_.reset();
    handle_clc_request(held);
  }
}

// ---------------------------------------------------------------------------
// Acks / sender log (paper §3.3)
// ---------------------------------------------------------------------------

void Hc3iAgent::handle_inter_ack(const InterAck& m) {
  log_.record_ack(m.msg, m.ack_sn, m.ack_inc);
}

// ---------------------------------------------------------------------------
// Rollback (paper §3.4)
// ---------------------------------------------------------------------------

void Hc3iAgent::on_failure_detected(NodeId failed) {
  // Delivered to the surviving coordinator of the failed node's cluster:
  // "When a node failure is detected, the cluster rolls back to its last
  // stored CLC."
  HC3I_CHECK(ctx_.topology->cluster_of(failed) == cluster(),
             "failure notification routed to wrong cluster");
  cluster_stat(stat_rollback_faults_, "rollback.faults").inc();
  // Paper §4: the first CLC "is the beginning of the application".  A fault
  // while the initial round is still in phase 1 restarts the cluster from
  // that beginning: SN 0, the zero DDV, the empty ledger cut and a fresh
  // process image on every node.
  proto::ClcRecord rec;  // a copy: the store gets truncated
  if (store().empty()) {
    rec.ddv = proto::Ddv(rt_.cluster_count(), cluster(), 0);
    rec.parts.resize(ctx_.topology->cluster_size(cluster()));
  } else {
    rec = store().last();
  }
  // The failed node lost its volatile memory; it will restore the
  // checkpointed copy of its log (survivors keep and truncate theirs).
  for (Hc3iAgent* peer : rt_.cluster_agents(cluster())) {
    peer->lost_memory_idx_ = local_index(failed);
  }
  rollback_cluster(std::move(rec), /*fault_origin=*/true);
}

void Hc3iAgent::rollback_cluster(proto::ClcRecord rec_arg, bool fault_origin) {
  // The record is shared by the two deferred resume events below; a
  // shared_ptr capture keeps each event callable within the queue's inline
  // storage (the record itself is cold-path state, allocated once per
  // rollback).
  const auto rec_sp =
      std::make_shared<const proto::ClcRecord>(std::move(rec_arg));
  const proto::ClcRecord& rec = *rec_sp;
  const ClusterId c = cluster();
  const Incarnation new_inc = rt_.bump_incarnation(c);
  // Node-level blast radius: the whole cluster restores (recovery telemetry
  // diffs rollback.nodes per incident).
  count_rollback(ctx_.topology->cluster_size(c), sn_, rec.sn);
  cluster_stat(stat_rollback_count_, "rollback.count").inc();
  HC3I_OBS(ctx_.obs, obs::RecordKind::kRollbackBegin, now(), c.v, self().v,
           new_inc, rec.sn, fault_origin ? 0 : 1);

  // 1. Drop this cluster's stale intra-cluster traffic (app and control) —
  //    except rollback-alert relays: they carry epoch-independent knowledge
  //    ("cluster f restored sn X under incarnation i") whose replay triggers
  //    are deduplicated at the alert, not the relay.  Dropping one here
  //    (alert relayed in the instant before our own fault applies — only
  //    reachable with concurrent per-cluster recoveries) would silently
  //    orphan this node's logged sends into f: no retransmit path exists,
  //    and the ledger would report them as lost.
  ctx_.network->drop_in_flight([c](const net::Envelope& e) {
    if (!(e.src_cluster == c && e.dst_cluster == c)) return false;
    return payload_as<AlertRelay>(e) == nullptr &&
           payload_as<RollbackAlert>(e) == nullptr;
  });

  // 2. Undo the cluster's post-checkpoint history in the ledger.
  ctx_.ledger->undo_after(c, rec.ledger_mark);

  // 3. Restore protocol state on every node of the cluster (atomic cluster
  //    event; the modelled cost is the resume delay below).
  for (Hc3iAgent* peer : rt_.cluster_agents(c)) {
    const bool lost_memory =
        peer->lost_memory_idx_.has_value() &&
        *peer->lost_memory_idx_ == local_index(peer->self());
    peer->apply_cluster_rollback(rec, new_inc, lost_memory);
    peer->lost_memory_idx_.reset();
  }

  // 4. Discard the checkpoints of the undone future.
  store().truncate_after(rec.sn);

  // 5. Re-inject the channel state once every node has restored.
  SimTime resume_delay = config::state_transfer_time(rt_.spec(), c);
  const storage::Backend* be = rt_.backend(c);
  if (be != nullptr && !store().empty()) {
    // Storage-modelled recovery: every node re-reads its checkpoint chain
    // (its part of the restored CLC plus the deltas back to the nearest
    // full image) before the application can resume.
    std::uint64_t total_bytes = 0;
    std::uint64_t max_node_bytes = 0;
    const std::uint32_t nodes = ctx_.topology->cluster_size(c);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      const std::uint64_t b = store().chain_read_bytes(rec.sn, i);
      total_bytes += b;
      max_node_bytes = std::max(max_node_bytes, b);
    }
    const SimTime read = be->cluster_read_time(total_bytes, max_node_bytes);
    const std::uint64_t read_us = static_cast<std::uint64_t>(read.ns / 1000);
    cluster_stat(stat_recovery_read_, "recovery.read_us").inc(read_us);
    named_stat(stat_g_recovery_read_, "recovery.read_us").inc(read_us);
    HC3I_OBS(ctx_.obs, obs::RecordKind::kChainRead, now(), c.v, self().v,
             static_cast<std::uint64_t>(rec.sn), total_bytes,
             static_cast<std::uint64_t>(read.ns));
    resume_delay += read;
  }
  ctx_.sim->schedule_after(
      resume_delay + microseconds(1), [this, rec_sp, new_inc] {
        if (inc_ != new_inc) return;  // superseded by a deeper rollback
        for (const net::Envelope& env : rec_sp->channel) {
          Hc3iAgent* dst = rt_.cluster_agents(cluster())[local_index(env.dst)];
          dst->on_app_message(env);
        }
      });

  // 6. Resume the application after the state transfer completes.
  ctx_.sim->schedule_after(resume_delay, [this, rec_sp, new_inc] {
    for (Hc3iAgent* peer : rt_.cluster_agents(cluster())) {
      if (peer->inc_ == new_inc) peer->resume_after_rollback(*rec_sp);
    }
    // The cluster resumed at its latest incarnation: this completes its
    // detected fault, also when a cascade superseded the fault's own
    // rollback.
    if (inc_ == new_inc) ctx_.recovery_done(cluster());
    // Restarted from the beginning of the application: take the first CLC
    // again, as start() did.
    Hc3iAgent* coordinator = rt_.cluster_agents(cluster()).front();
    if (coordinator->inc_ == new_inc && store().empty()) {
      coordinator->coordinator_begin_round(RoundReason::kInitial);
    }
  });

  // 7. Alert one node in every other cluster (paper §3.4).
  auto alert = proto::make_pooled<RollbackAlert>();
  alert->faulty = c;
  alert->restored_sn = rec.sn;
  alert->new_inc = new_inc;
  for (std::size_t k = 0; k < rt_.cluster_count(); ++k) {
    if (k == c.v) continue;
    send_control(coordinator_of(ClusterId{static_cast<std::uint32_t>(k)}),
                 ControlSizes::kSmall, alert);
  }
}

void Hc3iAgent::apply_cluster_rollback(const proto::ClcRecord& rec,
                                       Incarnation new_inc, bool lost_memory) {
  const std::uint32_t idx = local_index(self());
  sn_ = rec.sn;
  ddv_ = rec.ddv;
  inc_ = new_inc;
  dedup_.restore(rec.parts[idx].dedup);
  if (lost_memory) {
    log_.restore(rec.parts[idx].log);
  } else {
    log_.truncate_from(rec.sn);
  }
  wait_force_.clear();
  pending_request_.reset();  // pre-rollback round; its inc is stale anyway
  tentative_.reset();
  round_active_ = false;
  pending_raises_.clear();
  pending_merge_.reset();
  acks_received_ = 0;
  // An incarnation bump mid-round aborts the round: its part and absorbed
  // demands are dropped above, stale acks are filtered by (inc, round id),
  // and a commit reads the nodes' DDVs only when it runs, so nothing of the
  // undone epoch reaches a later committed DDV (regression:
  // Rollback.FailureBetweenPhase1AcksLeavesNoStaleDdv).
  if (clc_timer_) clc_timer_->cancel();
  freeze_for_rollback(rec.parts[idx].app);
}

void Hc3iAgent::resume_after_rollback(const proto::ClcRecord& rec) {
  resume_from_rollback(rec.parts[local_index(self())].app, [this] {
    if (is_cluster_coordinator() && clc_timer_) clc_timer_->reset();
  });
}

void Hc3iAgent::handle_rollback_alert(const RollbackAlert& m) {
  HC3I_CHECK(m.faulty != cluster(), "alert from own cluster");
  if (!alerts_seen_.insert({m.faulty.v, m.new_inc}).second) return;
  ctx_.registry->counter("rollback.alerts").inc();
  if (known_rollbacks_.empty()) known_rollbacks_.resize(rt_.cluster_count());
  known_rollbacks_[m.faulty.v].push_back(
      RollbackInfo{m.new_inc, m.restored_sn});

  // Rollback decision first (paper §3.4): roll back to the target CLC, if
  // any, then alert the others with our own new SN (done inside
  // rollback_cluster).
  if (const proto::ClcRecord* target =
          rollback_target(m.faulty, m.restored_sn)) {
    cluster_stat(stat_rollback_cascade_, "rollback.cascade").inc();
    rollback_cluster(*target, /*fault_origin=*/false);
  }

  // Relay intra-cluster so every node replays its logged messages
  // ("Even if its cluster does not need to rollback, a node receiving a
  // rollback alert broadcasts it in its cluster").
  auto relay = proto::make_pooled<AlertRelay>();
  relay->inc = inc_;
  relay->alert = m;
  broadcast_control(cluster(), ControlSizes::kSmall, std::move(relay),
                    /*include_self=*/true);
}

void Hc3iAgent::handle_alert_relay(const AlertRelay& m) {
  // Replaying is safe regardless of our incarnation: surviving log entries
  // always describe sends that are part of our current state.
  if (known_rollbacks_.empty()) known_rollbacks_.resize(rt_.cluster_count());
  known_rollbacks_[m.alert.faulty.v].push_back(
      RollbackInfo{m.alert.new_inc, m.alert.restored_sn});
  const std::vector<net::Envelope> resends =
      log_.take_resends(m.alert.faulty, m.alert.restored_sn, m.alert.new_inc);
  for (const net::Envelope& env : resends) {
    const net::Envelope fresh = resend_app(env);
    log_.add(fresh);
  }
  if (!resends.empty()) note_log_highwater();
}

// ---------------------------------------------------------------------------
// Garbage collection (paper §3.5)
// ---------------------------------------------------------------------------

void Hc3iAgent::on_gc_timer() {
  if (gc_active_) return;
  gc_active_ = true;
  ++gc_round_;
  gc_epoch_at_start_ = rt_.fed_rollback_epoch();
  gc_metas_.assign(rt_.cluster_count(), std::nullopt);
  gc_responses_ = 0;
  ctx_.registry->counter("gc.rounds").inc();
  HC3I_OBS(ctx_.obs, obs::RecordKind::kGcRoundBegin, now(), cluster().v,
           self().v, gc_round_);
  auto req = proto::make_pooled<GcRequest>();
  req->gc_round = gc_round_;
  for (std::size_t k = 0; k < rt_.cluster_count(); ++k) {
    send_control_or_local(
        coordinator_of(ClusterId{static_cast<std::uint32_t>(k)}),
        ControlSizes::kSmall, req);
  }
}

void Hc3iAgent::handle_gc_request(const net::Envelope& env, const GcRequest& m) {
  auto resp = proto::make_pooled<GcResponse>();
  resp->gc_round = m.gc_round;
  resp->cluster = cluster();
  std::vector<proto::ClcMeta> metas;
  metas.reserve(store().size());
  for (const proto::ClcRecord& r : store().records()) {
    metas.push_back(proto::ClcMeta{r.sn, r.ddv});
  }
  // The response carries the whole DDV list (paper §5.4 calls this out as
  // the GC's main network cost) — delta+varint compressed, and charged its
  // real encoded size so the simulated GC cost matches what a wire
  // implementation would pay.
  resp->metas = proto::encode_clc_metas(metas);
  const std::uint64_t flat = proto::uncompressed_clc_metas_bytes(
      metas.size(), rt_.cluster_count(), ControlSizes::kPerDdvEntry);
  const std::uint64_t bytes = ControlSizes::kSmall + resp->metas.wire_bytes();
  if (flat > resp->metas.wire_bytes()) {
    cluster_stat(stat_gc_resp_saved_, "gc.resp_bytes_saved")
        .inc(flat - resp->metas.wire_bytes());
  }
  send_control_or_local(env.src, bytes, std::move(resp));
}

void Hc3iAgent::handle_gc_response(const GcResponse& m) {
  if (!gc_active_ || m.gc_round != gc_round_) return;
  if (gc_metas_[m.cluster.v].has_value()) return;
  gc_metas_[m.cluster.v] = proto::decode_clc_metas(m.metas);
  if (++gc_responses_ < rt_.cluster_count()) return;

  gc_active_ = false;
  if (rt_.fed_rollback_epoch() != gc_epoch_at_start_) {
    // A rollback raced with this GC round; the snapshots are inconsistent.
    ctx_.registry->counter("gc.aborted").inc();
    return;
  }
  std::vector<std::vector<proto::ClcMeta>> metas;
  metas.reserve(rt_.cluster_count());
  for (auto& m_opt : gc_metas_) metas.push_back(std::move(*m_opt));
  const std::vector<SeqNum> min_sns = proto::gc_min_restored_sns(metas);

  auto collect = proto::make_pooled<GcCollect>();
  collect->gc_round = gc_round_;
  collect->min_sns = min_sns;
  const std::uint64_t bytes =
      ControlSizes::kSmall + min_sns.size() * ControlSizes::kPerDdvEntry;
  for (std::size_t k = 0; k < rt_.cluster_count(); ++k) {
    send_control_or_local(
        coordinator_of(ClusterId{static_cast<std::uint32_t>(k)}), bytes,
        collect);
  }
}

void Hc3iAgent::handle_gc_collect(const GcCollect& m) {
  HC3I_CHECK(m.min_sns.size() == rt_.cluster_count(), "GC vector size");
  const std::size_t before = store().size();
  const std::size_t removed = store().prune_before(m.min_sns[cluster().v]);
  const std::size_t after = store().size();
  rt_.record_gc(now(), cluster(), before, after);
  cluster_stat(stat_gc_removed_, "gc.clcs_removed").inc(removed);
  HC3I_OBS(ctx_.obs, obs::RecordKind::kGcPrune, now(), cluster().v, self().v,
           m.gc_round, removed, after);
  auto prune = proto::make_pooled<GcPrune>();
  prune->min_sns = m.min_sns;
  broadcast_control(cluster(),
                    ControlSizes::kSmall +
                        m.min_sns.size() * ControlSizes::kPerDdvEntry,
                    std::move(prune), /*include_self=*/true);
}

void Hc3iAgent::handle_gc_prune(const GcPrune& m) {
  std::size_t removed = 0;
  for (std::size_t d = 0; d < m.min_sns.size(); ++d) {
    if (d == cluster().v) continue;
    removed +=
        log_.prune(ClusterId{static_cast<std::uint32_t>(d)}, m.min_sns[d]);
  }
  if (removed > 0) {
    ctx_.registry->counter("gc.log_entries_removed").inc(removed);
  }
}

}  // namespace hc3i::core
