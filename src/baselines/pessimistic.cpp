#include "baselines/pessimistic.hpp"

#include "proto/payload_pool.hpp"

namespace hc3i::baselines {

PessimisticRuntime::PessimisticRuntime(const config::RunSpec& spec)
    : spec_(spec) {
  spec_.validate();
}

proto::AgentFactory PessimisticRuntime::factory() {
  return [this](const proto::AgentContext& ctx) {
    auto agent = std::make_unique<PessimisticAgent>(ctx, *this);
    agents_.push_back(agent.get());
    return agent;
  };
}

PessimisticAgent::PessimisticAgent(const proto::AgentContext& ctx,
                                   PessimisticRuntime& rt)
    : AgentBase(ctx), rt_(rt) {}

void PessimisticAgent::start() {
  // Independent per-node checkpoints on the cluster's timer period; the
  // initial checkpoint is the start state.
  take_checkpoint();
  const SimTime period = rt_.spec().timers.clusters[cluster().v].clc_period;
  if (!period.is_infinite()) {
    timer_ = std::make_unique<sim::Timer>(*ctx_.sim, period, /*periodic=*/true,
                                          [this] { take_checkpoint(); });
    timer_->arm();
  }
}

void PessimisticAgent::take_checkpoint() {
  checkpoint_ = ctx_.app->snapshot();
  checkpoint_mark_ = ctx_.ledger->mark();
  receive_log_.clear();
  cluster_stat(stat_clc_total_, "clc.total").inc();
  named_stat(stat_node_ckpts_, "pess.node_checkpoints").inc();
  // Model the stable write of the state to the ring neighbour.
  if (ctx_.topology->cluster_size(cluster()) > 1) {
    send_control(ctx_.topology->ring_neighbour(self()),
                 rt_.spec().application.state_bytes,
                 proto::make_pooled<LogCopy>());
  }
}

void PessimisticAgent::app_send(NodeId dst, std::uint64_t bytes,
                                std::uint64_t app_seq) {
  // Never in a round: the gate only drops sends while the node is frozen.
  if (gate_send(dst, bytes, app_seq) == SendGate::kPass) {
    send_app(dst, bytes, app_seq, {});  // no checkpointing metadata needed
  }
}

void PessimisticAgent::on_message(const net::Envelope& env) {
  if (env.cls == net::MsgClass::kControl) {
    // Channel-memory copies are sinks: modelled storage traffic only.
    return;
  }
  if (hold_arrival(env)) return;
  if (dedup_.count(env.app_seq) > 0) {
    // Duplicate from a re-executed sender (PWD re-sends); drop.
    named_stat(stat_dup_dropped_, "pess.dup_dropped").inc();
    return;
  }
  dedup_.insert(env.app_seq);
  receive_log_.push_back(env);
  deliver_app(env);
  // Pessimistic logging: the delivery is also persisted at the channel
  // memory before the application may causally affect others.  The copy
  // costs a full extra transfer (the MPICH-V overhead).
  if (ctx_.topology->cluster_size(cluster()) > 1) {
    send_control(ctx_.topology->ring_neighbour(self()), env.payload_bytes,
                 proto::make_pooled<LogCopy>());
    named_stat(stat_log_copies_, "pess.log_copies").inc();
  }
}

void PessimisticAgent::on_failure_detected(NodeId failed) {
  // Only the failed node rolls back — the defining property of the
  // message-logging family.
  ctx_.registry->counter("rollback.faults").inc();
  count_rollback(1);  // node scope
  // Node scope: no cluster SN is restored, so to_sn is 0.
  HC3I_OBS(ctx_.obs, obs::RecordKind::kRollbackBegin, now(), cluster().v,
           failed.v, 0, 0, 0);
  PessimisticAgent* victim = rt_.agents()[failed.v];
  victim->restore_failed_node();
}

void PessimisticAgent::restore_failed_node() {
  ctx_.ledger->undo_after_node(self(), checkpoint_mark_);
  // Deliveries since the checkpoint are undone and must be replayed from
  // the channel memory; forget them in the dedup set so the replay is not
  // suppressed (the log itself is the replay source).
  for (const net::Envelope& env : receive_log_) dedup_.erase(env.app_seq);
  freeze_for_rollback(checkpoint_);
  // Node scope only: no cluster rolls back.
  ctx_.registry->summary_handle("rollback.clusters_rolled").add(0.0);

  ctx_.sim->schedule_after(
      config::state_transfer_time(rt_.spec(), cluster()), [this] {
        resume_from_rollback(checkpoint_, [this] {
          // Replay the logged deliveries in their original order (PWD).
          auto log = std::move(receive_log_);
          receive_log_.clear();
          for (const net::Envelope& env : log) {
            dedup_.insert(env.app_seq);
            receive_log_.push_back(env);
            deliver_app(env);
            named_stat(stat_replayed_, "pess.replayed").inc();
          }
        });
        ctx_.recovery_done(cluster());
      });
}

}  // namespace hc3i::baselines
