#include "proto/agent_base.hpp"

namespace hc3i::proto {

AgentBase::AgentBase(AgentContext ctx)
    : ProtocolAgent(std::move(ctx)),
      cluster_base_(ctx_.topology->first_node(ctx_.cluster)) {}

net::Envelope AgentBase::send_app(NodeId dst, std::uint64_t bytes,
                                  std::uint64_t app_seq,
                                  const net::Piggyback& piggy) {
  net::Envelope env;
  env.src = self();
  env.dst = dst;
  env.src_cluster = cluster();
  env.dst_cluster = ctx_.topology->cluster_of(dst);
  env.cls = net::MsgClass::kApp;
  env.payload_bytes = bytes;
  env.piggy = piggy;
  env.app_seq = app_seq;
  env.sent_at = now();
  ctx_.ledger->record_send(app_seq, self(), cluster());
  env.id = ctx_.network->send(env);
  return env;
}

net::Envelope AgentBase::resend_app(const net::Envelope& original) {
  net::Envelope env = original;
  ctx_.ledger->record_send(env.app_seq, self(), cluster());
  ctx_.registry->counter("log.resent_msgs").inc();
  // Replay cost in bytes (recovery telemetry reports it per incident).
  ctx_.registry->counter("log.resent_bytes").inc(env.payload_bytes);
  env.sent_at = now();
  env.id = ctx_.network->send(env);
  return env;
}

void AgentBase::deliver_app(const net::Envelope& env) {
  ctx_.ledger->record_delivery(env.app_seq, self(), cluster());
  ctx_.app->deliver(env);
}

void AgentBase::freeze_for_rollback(const AppSnapshot& restored) {
  const SimTime lost =
      ctx_.app->snapshot().virtual_work - restored.virtual_work;
  if (lost.ns > 0) {
    named_summary(stat_lost_work_, "rollback.lost_work_s").add(lost.seconds());
  }
  in_round_ = false;
  queued_sends_.clear();
  deferred_.clear();
  post_rollback_stash_.clear();
  rollback_pending_ = true;
  ctx_.app->freeze();
}

void AgentBase::count_rollback(std::uint32_t nodes) {
  named_stat(stat_rollback_count_, "rollback.count").inc();
  named_stat(stat_rollback_nodes_, "rollback.nodes").inc(nodes);
}

void AgentBase::count_rollback(std::uint32_t nodes, SeqNum from, SeqNum to) {
  count_rollback(nodes);
  named_summary(stat_rollback_depth_, "rollback.depth_clcs")
      .add(static_cast<double>(from - to));
}

MsgId AgentBase::send_control(
    NodeId dst, std::uint64_t bytes,
    std::shared_ptr<const net::ControlPayload> payload) {
  net::Envelope env;
  env.src = self();
  env.dst = dst;
  env.cls = net::MsgClass::kControl;
  env.payload_bytes = bytes;
  env.control = std::move(payload);
  return ctx_.network->send(std::move(env));
}

net::Envelope AgentBase::make_local_control(
    std::uint64_t bytes,
    std::shared_ptr<const net::ControlPayload> payload) const {
  net::Envelope env;
  env.id = MsgId{0};
  env.src = self();
  env.dst = self();
  env.src_cluster = cluster();
  env.dst_cluster = cluster();
  env.cls = net::MsgClass::kControl;
  env.payload_bytes = bytes;
  env.control = std::move(payload);
  env.sent_at = now();
  return env;
}

void AgentBase::deliver_control_locally(
    std::uint64_t bytes, std::shared_ptr<const net::ControlPayload> payload) {
  // The envelope is built inside the event rather than captured: the event
  // fires at the same instant it is scheduled (zero delay), so sent_at is
  // identical, and the capture stays small enough for the queue's inline
  // callable storage (payload pointer + size instead of a whole Envelope).
  ctx_.sim->schedule_after(
      SimTime::zero(), [this, bytes, payload = std::move(payload)]() mutable {
        on_message(make_local_control(bytes, std::move(payload)));
      });
}

void AgentBase::send_control_or_local(
    NodeId dst, std::uint64_t bytes,
    std::shared_ptr<const net::ControlPayload> payload) {
  if (dst == self()) {
    deliver_control_locally(bytes, std::move(payload));
    return;
  }
  send_control(dst, bytes, std::move(payload));
}

void AgentBase::broadcast_control(
    ClusterId cluster_id, std::uint64_t bytes,
    std::shared_ptr<const net::ControlPayload> payload, bool include_self) {
  // Iterate the dense node range directly — a broadcast runs for every CLC
  // round and GC/alert relay, and building a nodes_of() vector per call was
  // a needless per-broadcast allocation.
  const NodeId base = ctx_.topology->first_node(cluster_id);
  const std::uint32_t size = ctx_.topology->cluster_size(cluster_id);
  for (std::uint32_t i = 0; i < size; ++i) {
    const NodeId n{base.v + i};
    if (n == self()) {
      if (include_self) deliver_control_locally(bytes, payload);
      continue;
    }
    send_control(n, bytes, payload);
  }
}

}  // namespace hc3i::proto
