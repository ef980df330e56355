#pragma once

// Structured protocol trace: the simulator's one trace system.
//
// The paper's simulator "can be compiled with different trace levels".
// Here a run either records or it does not, and the levels are renderings
// of the same records (obs/export.hpp): the §5.1 protocol text, a
// Perfetto timeline, or nothing beyond the end-of-run statistics.  The
// records say which CLC round a commit closed, how long a checkpoint write
// stalled, when a rollback started and when its recovery finished.  This
// header defines those records and the Recorder that collects them.
//
// Cost discipline: when tracing is off the recorder pointer threaded
// through proto::AgentContext is null and every emission site is one
// pointer test (the HC3I_OBS macro below).  When it is on, records land in
// a chunked buffer — fixed-size chunks, never relocated — so steady-state
// emission does not allocate per record.  The simulation is
// single-threaded and events execute in time order, so the buffer is
// chronologically sorted by construction and the export (obs/export.hpp)
// is deterministic for a fixed seed.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/accumulators.hpp"
#include "util/time.hpp"

namespace hc3i::obs {

/// What happened.  Payload field meaning per kind is documented inline and
/// in docs/observability.md (the export relies on it).
enum class RecordKind : std::uint8_t {
  kClcRoundBegin,   ///< id=round, a=forced(0/1)
  kClcAck,          ///< id=round, node=acking node, a=acks so far, b=needed
  kClcCommit,       ///< id=round, a=committed SN, b=forced(0/1)
  kCkptWrite,       ///< node=writer, a=bytes, b=stall ns
  kChainRead,       ///< a=bytes, b=read ns (recovery chain read)
  kFailure,         ///< node=victim
  kNodeRestored,    ///< node=restored node
  kRollbackBegin,   ///< id=new incarnation, a=rollback-to SN (0 for a
                    ///< node-scope rollback), b=origin: 0 fault, 1 alert
  kRecoveryEnd,     ///< recovery complete for the cluster
  kGcRoundBegin,    ///< id=GC round
  kGcPrune,         ///< id=GC round, a=CLCs removed, b=CLCs kept
  kCampaignInject,  ///< node=victim, label=injection source
};

/// Stable lowercase event name for exports ("clc_round", "ckpt_write", ...).
/// constexpr so the exporter can bound each kind's line at compile time.
constexpr const char* to_label(RecordKind k) {
  switch (k) {
    case RecordKind::kClcRoundBegin:
      return "clc_round";
    case RecordKind::kClcAck:
      return "clc_ack";
    case RecordKind::kClcCommit:
      return "clc_commit";
    case RecordKind::kCkptWrite:
      return "ckpt_write";
    case RecordKind::kChainRead:
      return "chain_read";
    case RecordKind::kFailure:
      return "failure";
    case RecordKind::kNodeRestored:
      return "node_restored";
    case RecordKind::kRollbackBegin:
      return "rollback";
    case RecordKind::kRecoveryEnd:
      return "recovery_end";
    case RecordKind::kGcRoundBegin:
      return "gc_round";
    case RecordKind::kGcPrune:
      return "gc_prune";
    case RecordKind::kCampaignInject:
      return "inject";
  }
  return "unknown";
}

/// One fixed-layout trace record.  `label`, when set, always points at a
/// string literal (campaign source names), never at owned storage.
struct TraceRecord {
  SimTime t;
  std::uint64_t id{0};
  std::uint64_t a{0};
  std::uint64_t b{0};
  std::uint32_t cluster{0};
  std::uint32_t node{0};
  RecordKind kind{};
  const char* label{nullptr};
};

/// Append-only record store: fixed-capacity chunks chained in a vector, so
/// a push never moves existing records and steady-state pushes (within a
/// chunk) never allocate.
class TraceBuffer {
 public:
  static constexpr std::size_t kChunkCap = 4096;

  void push(const TraceRecord& r) {
    if (chunks_.empty() || chunks_.back()->n == kChunkCap) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    Chunk& c = *chunks_.back();
    c.recs[c.n++] = r;
    ++size_;
  }

  std::size_t size() const { return size_; }

  /// Visit every record in emission (= chronological) order.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& c : chunks_) {
      for (std::size_t i = 0; i < c->n; ++i) f(c->recs[i]);
    }
  }

 private:
  struct Chunk {
    std::array<TraceRecord, kChunkCap> recs;
    std::size_t n{0};
  };
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_{0};
};

/// Collects trace records and, on the side, the latency distributions only
/// a record stream can see: CLC round duration (begin -> commit, per
/// cluster) and storage stall (checkpoint write + recovery chain read).
/// One Recorder per run, owned by the driver; emission sites hold a raw
/// pointer that is null when tracing is off.
class Recorder {
 public:
  void emit(RecordKind k, SimTime t, std::uint32_t cluster, std::uint32_t node,
            std::uint64_t id, std::uint64_t a = 0, std::uint64_t b = 0,
            const char* label = nullptr) {
    buf_.push(TraceRecord{t, id, a, b, cluster, node, k, label});
    switch (k) {
      case RecordKind::kClcRoundBegin:
        if (cluster >= round_begin_.size()) {
          round_begin_.resize(cluster + 1, SimTime::infinity());
        }
        round_begin_[cluster] = t;
        break;
      case RecordKind::kClcCommit:
        if (cluster < round_begin_.size() &&
            !round_begin_[cluster].is_infinite()) {
          round_us_.add(
              static_cast<std::uint64_t>((t - round_begin_[cluster]).ns) /
              1000u);
          round_begin_[cluster] = SimTime::infinity();
        }
        break;
      case RecordKind::kCkptWrite:
      case RecordKind::kChainRead:
        stall_us_.add(b / 1000u);
        break;
      default:
        break;
    }
  }

  const TraceBuffer& records() const { return buf_; }
  /// CLC round duration distribution, microseconds.
  const stats::Log2Histogram& round_us() const { return round_us_; }
  /// Storage stall distribution (ckpt writes + chain reads), microseconds.
  const stats::Log2Histogram& stall_us() const { return stall_us_; }

 private:
  TraceBuffer buf_;
  std::vector<SimTime> round_begin_;  ///< open round start, per cluster
  stats::Log2Histogram round_us_;
  stats::Log2Histogram stall_us_;
};

}  // namespace hc3i::obs

/// The sanctioned emission idiom: one null test when tracing is off, a
/// record append when on.  Instrumentation sites must use this macro (or an
/// equivalent visible guard) — the trace-guarded lint rule rejects raw
/// Recorder emission calls outside src/obs/.
#define HC3I_OBS(rec, ...)                         \
  do {                                             \
    if ((rec) != nullptr) (rec)->emit(__VA_ARGS__); \
  } while (0)
