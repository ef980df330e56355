#include "fault/engine.hpp"

#include <algorithm>
#include <string>

#include "obs/trace.hpp"
#include "util/quantity.hpp"

namespace hc3i::fault {

namespace {

// Fixed RNG stream id for failure injection, disjoint from the per-node
// streams the workload derives (those use the node id directly).  Index 0 —
// the slot the driver's `auto_failures` shim occupies — yields exactly the
// id the Federation's built-in injector used before the campaign engine
// subsumed it, so MTBF-driven runs reproduce pre-campaign behaviour draw
// for draw.
constexpr std::uint64_t kFailureRngStream = 0xFA11FA11ULL;

constexpr std::uint64_t stream_rng_id(std::size_t index) {
  return kFailureRngStream + (static_cast<std::uint64_t>(index) << 32);
}

}  // namespace

CampaignEngine::CampaignEngine(fed::Federation& fed,
                               core::Hc3iRuntime* runtime, Campaign plan,
                               SimTime quiesce_bound)
    : fed_(fed),
      rt_(runtime),
      plan_(std::move(plan)),
      bound_(quiesce_bound),
      telemetry_(fed.registry(), fed.ledger()),
      cluster_queue_(fed.topology().cluster_count()) {}

void CampaignEngine::arm() {
  HC3I_CHECK(!armed_, "CampaignEngine::arm called twice");
  armed_ = true;
  plan_.validate(fed_.spec().topology);
  HC3I_CHECK(plan_.phase_triggers.empty() || rt_ != nullptr,
             "campaign phase triggers observe HC3I protocol state; the "
             "selected protocol exposes none");

  // The quiesce bound is the last admissible injection time: a kill later
  // than this leaves the recovery (and, for message-logging protocols, the
  // replay of lost work) no runway before strict validation, so pre-failure
  // sends would be audited as ghosts.  Reject loudly instead of producing a
  // run whose violations blame the protocol.  (Repeat occurrences past the
  // bound are clamped away instead.)
  const std::vector<TimedKill> kills =
      timed_kills(plan_, fed_.spec().topology, bound_);
  for (const TimedKill& k : kills) {
    HC3I_CHECK(k.at <= bound_,
               std::string("campaign ") + k.source + " kill of node " +
                   std::to_string(k.victim.v) + " at " + to_string(k.at) +
                   " lands past the failure quiesce bound " +
                   to_string(bound_) +
                   ": recovery could not settle before validation "
                   "(move the kill earlier or extend the horizon)");
  }

  fed_.set_recovery_listener([this](ClusterId c) { on_recovery(c); });
  if (!plan_.phase_triggers.empty()) rt_->set_observer(this);

  // Streams arm first: the auto_failures shim occupies stream index 0 and
  // historically scheduled its first draw before any scripted kill.
  streams_.reserve(plan_.streams.size());
  for (std::size_t i = 0; i < plan_.streams.size(); ++i) {
    const StreamSpec& spec = plan_.streams[i];
    streams_.push_back(StreamState{spec, sim().rng_stream(stream_rng_id(i)),
                                   std::min(spec.stop, bound_)});
    if (spec.start <= sim().now()) {
      schedule_stream_next(i);
    } else {
      sim().schedule_at(spec.start, [this, i] { schedule_stream_next(i); });
    }
  }

  // Scripted, burst and repeat kills in campaign order; a kill into a
  // recovering cluster is a deliberate kill-during-recovery — it queues
  // rather than drops.
  for (const TimedKill& k : kills) {
    sim().schedule_at(k.at, [this, victim = k.victim, source = k.source] {
      inject_or_queue(victim, source);
    });
  }

  triggers_.reserve(plan_.phase_triggers.size());
  for (const PhaseTriggerSpec& t : plan_.phase_triggers) {
    triggers_.push_back(TriggerState{t, 0, false});
  }
}

void CampaignEngine::finalize() { telemetry_.finalize(sim().now()); }

// ---------------------------------------------------------------------------
// Injection paths
// ---------------------------------------------------------------------------

void CampaignEngine::inject(NodeId victim, const char* source) {
  telemetry_.begin_incident(sim().now(), victim, cluster_of(victim), source);
  // Every injection path (scripted, burst, MTBF stream, repeat offender,
  // phase trigger) funnels through here, so one record catches the campaign
  // decision with its source label; the federation emits the fault itself.
  HC3I_OBS(fed_.recorder(), obs::RecordKind::kCampaignInject, sim().now(),
           cluster_of(victim).v, victim.v, 0, 0, 0, source);
  fed_.inject_failure(victim);
}

void CampaignEngine::inject_or_queue(NodeId victim, const char* source) {
  if (sim().now() > bound_) {
    // A queue drained this kill past the quiesce bound (arm() only checks
    // the *scheduled* times): injecting now would leave the recovery — and
    // for message-logging protocols the replay of lost work — no runway
    // before strict validation, the ghost-send hazard the bound exists to
    // prevent.  Drop and count instead.
    fed_.registry().counter("fault.skipped_quiesce").inc();
    return;
  }
  const ClusterId c = cluster_of(victim);
  if (fed_.recovery_pending(c)) {
    cluster_queue_[c.v].push_back(PendingKill{victim, source});
    fed_.registry().counter("fault.queued_same_cluster").inc();
    return;
  }
  inject(victim, source);
}

void CampaignEngine::inject_or_skip(NodeId victim, const char* source) {
  if (sim().now() > bound_) {
    // Phase-targeted triggers can match a round that runs in the drain
    // window; past the bound the kill could not settle (see above).
    fed_.registry().counter("fault.skipped_quiesce").inc();
    return;
  }
  // A remote cluster's concurrent recovery is irrelevant to this trigger's
  // phase window; only the target cluster's own recovery invalidates it.
  if (fed_.recovery_pending(cluster_of(victim))) {
    fed_.registry().counter("fault.skipped_overlap").inc();
    return;
  }
  inject(victim, source);
}

// ---------------------------------------------------------------------------
// MTBF streams
// ---------------------------------------------------------------------------

void CampaignEngine::schedule_stream_next(std::size_t i) {
  StreamState& st = streams_[i];
  const SimTime gap =
      from_seconds_f(st.rng.exponential(st.spec.mtbf.seconds()));
  const SimTime when = sim().now() + gap;
  if (when > st.stop) return;  // the stream dies past its window
  sim().schedule_at(when, [this, i] { stream_fire(i); });
}

void CampaignEngine::stream_fire(std::size_t i) {
  StreamState& st = streams_[i];
  const net::Topology& topo = fed_.topology();
  if (st.spec.cluster && fed_.recovery_pending(*st.spec.cluster)) {
    // Per-cluster stream: its own cluster is recovering.  Block *before*
    // drawing a victim so the redraw at completion starts from the same
    // RNG position a never-blocked stream would use.
    st.blocked_on = *st.spec.cluster;
    return;
  }
  NodeId victim;
  if (st.spec.cluster) {
    const ClusterId c = *st.spec.cluster;
    victim = NodeId{topo.first_node(c).v +
                    static_cast<std::uint32_t>(
                        st.rng.next_below(topo.cluster_size(c)))};
  } else {
    victim = NodeId{
        static_cast<std::uint32_t>(st.rng.next_below(topo.node_count()))};
  }
  if (fed_.recovery_pending(cluster_of(victim))) {
    // Federation-wide stream: the drawn victim's cluster is mid-recovery.
    // Block on that cluster; the completion redraw picks gap and victim
    // afresh.
    st.blocked_on = cluster_of(victim);
    return;
  }
  inject(victim, "stream");
  schedule_stream_next(i);
}

// ---------------------------------------------------------------------------
// Phase-targeted triggers (ProtocolObserver)
// ---------------------------------------------------------------------------

void CampaignEngine::trigger_matched(TriggerState& t) {
  if (++t.seen < t.spec.occurrence) return;
  t.done = true;
  const NodeId victim = t.spec.victim;
  // Deferred one (zero-delay) event so the kill never mutates network state
  // from inside the protocol handler that reported the phase.
  sim().schedule_after(SimTime::zero(),
                       [this, victim] { inject_or_skip(victim, "phase"); });
}

void CampaignEngine::on_phase1_ack(ClusterId cluster, std::uint64_t /*round*/,
                                   std::uint32_t acks,
                                   std::uint32_t /*needed*/) {
  for (TriggerState& t : triggers_) {
    if (t.done || t.spec.phase != Phase::kPhase1Acks) continue;
    if (t.spec.cluster != cluster || acks != t.spec.after_acks) continue;
    if (sim().now() < t.spec.not_before) continue;
    trigger_matched(t);
  }
}

void CampaignEngine::on_clc_commit(ClusterId cluster, SeqNum /*sn*/,
                                   bool /*forced*/) {
  for (TriggerState& t : triggers_) {
    if (t.done || t.spec.phase != Phase::kCommit) continue;
    if (t.spec.cluster != cluster) continue;
    if (sim().now() < t.spec.not_before) continue;
    trigger_matched(t);
  }
}

// ---------------------------------------------------------------------------
// Recovery completion: retry whatever the one-fault rule held back
// ---------------------------------------------------------------------------

void CampaignEngine::on_recovery(ClusterId cluster) {
  telemetry_.on_recovery_complete(sim().now(), cluster);
  // Only *this* cluster's queue unblocks.  One queued kill
  // fires per completion (re-injecting marks the cluster pending again, so
  // the rest of the queue drains recovery by recovery); streams blocked on
  // the cluster stay blocked while its queue holds kills.
  auto& queue = cluster_queue_[cluster.v];
  if (!queue.empty()) {
    const PendingKill k = queue.front();
    queue.erase(queue.begin());
    sim().schedule_after(SimTime::zero(), [this, k] {
      inject_or_queue(k.victim, k.source);
    });
    return;
  }
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].blocked_on && *streams_[i].blocked_on == cluster) {
      streams_[i].blocked_on.reset();
      schedule_stream_next(i);
    }
  }
}

}  // namespace hc3i::fault
