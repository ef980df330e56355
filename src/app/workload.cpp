#include "app/workload.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace hc3i::app {

namespace {
/// Domain-separation constant for workload decision streams.
constexpr std::uint64_t kDecisionDomain = 0xC0DEC0DE1234ULL;
}  // namespace

// ---------------------------------------------------------------------------
// WorkloadNode
// ---------------------------------------------------------------------------

WorkloadNode::WorkloadNode(Workload& owner, NodeId self, ClusterId cluster)
    : owner_(owner), self_(self), cluster_(cluster),
      region_(owner.app_.state_bytes) {}

void WorkloadNode::start() {
  HC3I_CHECK(agent_ != nullptr, "WorkloadNode: agent not bound");
  schedule_step();
}

void WorkloadNode::schedule_step() {
  if (owner_.sim_.now() >= owner_.horizon_) return;  // application finished
  const auto& cspec = owner_.app_.clusters[cluster_.v];
  // Decision stream: pure function of (seed, node, step, salt) — see the
  // replay-model note in the header.
  RngStream decide(owner_.sim_.seed() ^ kDecisionDomain,
                   (static_cast<std::uint64_t>(self_.v) << 32) ^
                       (progress_ * 2654435761ULL) ^ (salt_ << 56));
  const SimTime compute = from_seconds_f(
      decide.exponential(cspec.mean_compute.seconds()));
  step_started_ = owner_.sim_.now();
  const std::uint64_t epoch = epoch_;
  pending_ = owner_.sim_.schedule_after(
      compute, [this, epoch] { on_step_done(epoch); });
}

void WorkloadNode::on_step_done(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // cancelled by a rollback
  pending_.reset();
  virtual_work_ += owner_.sim_.now() - step_started_;

  // Pick the destination with the same decision stream (re-derived so that
  // restore() replays cleanly from the progress counter alone).
  const auto& cspec = owner_.app_.clusters[cluster_.v];
  RngStream decide(owner_.sim_.seed() ^ kDecisionDomain,
                   (static_cast<std::uint64_t>(self_.v) << 32) ^
                       (progress_ * 2654435761ULL) ^ (salt_ << 56) ^ 1);
  bool any_weight = false;
  for (const double w : cspec.traffic) any_weight = any_weight || w > 0.0;
  if (any_weight) {
    const auto dst_cluster = ClusterId{static_cast<std::uint32_t>(
        decide.weighted_index(cspec.traffic))};
    const std::uint32_t size = owner_.topo_.cluster_size(dst_cluster);
    const std::uint32_t base = owner_.topo_.first_node(dst_cluster).v;
    // Uniform destination node, excluding self.
    NodeId dst{base + static_cast<std::uint32_t>(decide.next_below(size))};
    if (dst == self_) dst = NodeId{base + (dst.v - base + 1) % size};
    if (dst != self_) {
      const std::uint64_t app_seq =
          (static_cast<std::uint64_t>(self_.v) << 32) | progress_;
      agent_->app_send(dst, cspec.message_bytes, app_seq);
      owner_.stat(owner_.stat_sends_, "app.sends").inc();
    }
  }
  // Each step mutates a stride of the modelled state.  The location is a
  // pure function of the progress counter (no RNG draw), so delta capture
  // replays exactly after a rollback and perturbs no decision stream.
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, region_.size() / 1024);
  region_.touch((progress_ * stride) % region_.size(), stride);
  ++progress_;
  schedule_step();
}

proto::AppSnapshot WorkloadNode::snapshot() const {
  proto::AppSnapshot snap;
  snap.progress = progress_;
  snap.virtual_work = virtual_work_;
  snap.state_bytes = owner_.app_.state_bytes;
  snap.delta_bytes = snap.state_bytes;  // pure read: a full image
  snap.opaque = received_;
  return snap;
}

proto::AppSnapshot WorkloadNode::snapshot(storage::CaptureMode mode) {
  proto::AppSnapshot snap = snapshot();
  const storage::CaptureRecord rec = region_.capture(mode);
  snap.delta_bytes = rec.length;
  snap.incremental = rec.incremental;
  return snap;
}

void WorkloadNode::freeze() {
  if (pending_) {
    owner_.sim_.cancel(*pending_);
    pending_.reset();
  }
  ++epoch_;  // invalidate any step event already popped from the queue
}

void WorkloadNode::restore(const proto::AppSnapshot& snap) {
  freeze();
  progress_ = snap.progress;
  virtual_work_ = snap.virtual_work;
  received_ = snap.opaque;
  // The restored image is the new baseline: the next storage capture must
  // be a full one regardless of the requested mode.
  region_.reset_base();
  if (owner_.mode_ == ReplayMode::kDivergent) ++salt_;
  owner_.stat(owner_.stat_restores_, "app.restores").inc();
  schedule_step();
}

void WorkloadNode::deliver(const net::Envelope& env) {
  (void)env;
  ++received_;
  owner_.stat(owner_.stat_delivered_, "app.delivered").inc();
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

Workload::Workload(sim::Simulation& sim, const net::Topology& topo,
                   const config::ApplicationSpec& app,
                   stats::Registry& registry, ReplayMode mode)
    : sim_(sim), topo_(topo), app_(app), registry_(registry), mode_(mode),
      horizon_(app.total_time) {
  app_.validate(topo.spec());
  nodes_.reserve(topo.node_count());
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    const NodeId n{i};
    nodes_.emplace_back(*this, n, topo.cluster_of(n));
  }
}

std::vector<proto::AppHandle*> Workload::handles() {
  std::vector<proto::AppHandle*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(&n);
  return out;
}

void Workload::bind_agents(
    const std::function<proto::ProtocolAgent*(NodeId)>& get) {
  for (auto& n : nodes_) n.bind(get(n.id()));
}

void Workload::start() {
  for (auto& n : nodes_) n.start();
}

std::uint64_t Workload::total_progress() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) total += n.progress();
  return total;
}

std::uint64_t Workload::total_received() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) total += n.received();
  return total;
}

WorkloadNode& Workload::node(NodeId n) {
  HC3I_CHECK(n.v < nodes_.size(), "Workload::node: bad id");
  return nodes_[n.v];
}

}  // namespace hc3i::app
