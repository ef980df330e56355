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
// pointer test (the HC3I_OBS macro below).  When it is on, each record is
// varint-encoded (about 9 bytes, against 56 for a TraceRecord) into 64 KiB
// byte chunks that are never relocated, so emission allocates once per
// chunk, never per record (tests/alloc_test.cpp).  The simulation is
// single-threaded and events execute in time order, so the buffer is
// chronologically sorted by construction and the export (obs/export.hpp)
// is deterministic for a fixed seed.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
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

/// Number of RecordKind values.
constexpr std::size_t kRecordKinds =
    static_cast<std::size_t>(RecordKind::kCampaignInject) + 1;

/// One trace record as emitted and as decoded.  `label`, when set, always
/// points at a string literal (campaign source names), never at owned
/// storage.
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

/// Append-only record store, encoded as a byte stream.  Each record is a
/// tag byte (the kind, plus kLabelBit when a label is present), then
/// LEB128 varints for the time delta from the previous record, cluster,
/// node, id, a and b, then, with kLabelBit, a varint index into the
/// buffer's table of label pointers.  The delta is the unsigned
/// wrap-around difference of the two int64 times, so any sequence
/// round-trips exactly; runs emit at now(), so their deltas are small.
///
/// Bytes land in fixed kChunkBytes chunks that are never relocated; a new
/// chunk starts when fewer than kMaxRecordBytes are left in the current
/// one, so a push allocates only when it opens a chunk (or grows the chunk
/// and label tables, logarithmically).
class TraceBuffer {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  static constexpr std::uint8_t kLabelBit = 0x80;
  /// Varint widths: 1 byte per 7 bits.
  static constexpr std::size_t kVarint32 = 5;
  static constexpr std::size_t kVarint64 = 10;
  /// Tag, time delta, cluster and node, id/a/b, label index.
  static constexpr std::size_t kMaxRecordBytes =
      1 + kVarint64 + 2 * kVarint32 + 3 * kVarint64 + kVarint64;
  static_assert(kRecordKinds <= kLabelBit);

  void push(const TraceRecord& r) {
    if (chunks_.empty() || kChunkBytes - chunks_.back()->used <
                               kMaxRecordBytes) {
      chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
    }
    Chunk& c = *chunks_.back();
    std::uint8_t* p = c.bytes.data() + c.used;
    const auto t = static_cast<std::uint64_t>(r.t.ns);
    *p++ = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(r.kind) |
        (r.label != nullptr ? kLabelBit : 0));
    p = put_varint(p, t - last_t_);
    p = put_varint(p, r.cluster);
    p = put_varint(p, r.node);
    p = put_varint(p, r.id);
    p = put_varint(p, r.a);
    p = put_varint(p, r.b);
    if (r.label != nullptr) p = put_varint(p, label_index(r.label));
    const auto n = static_cast<std::size_t>(p - (c.bytes.data() + c.used));
    c.used += n;
    bytes_ += n;
    last_t_ = t;
    ++counts_[static_cast<std::size_t>(r.kind)];
    ++size_;
  }

  std::size_t size() const { return size_; }
  /// Records of kind `k`.
  std::size_t count(RecordKind k) const {
    return counts_[static_cast<std::size_t>(k)];
  }
  /// Total length of every record's label, NUL excluded.
  std::size_t label_bytes() const { return label_bytes_; }
  /// Encoded bytes over every record.
  std::size_t bytes() const { return bytes_; }

  /// Visit every record in emission (= chronological) order, each decoded
  /// into a stack TraceRecord.
  template <typename F>
  void for_each(F&& f) const {
    std::uint64_t t = 0;
    for (const auto& c : chunks_) {
      const std::uint8_t* p = c->bytes.data();
      const std::uint8_t* const end = p + c->used;
      while (p != end) {
        const std::uint8_t tag = *p++;
        t += get_varint(p);
        const auto cluster = static_cast<std::uint32_t>(get_varint(p));
        const auto node = static_cast<std::uint32_t>(get_varint(p));
        const std::uint64_t id = get_varint(p);
        const std::uint64_t a = get_varint(p);
        const std::uint64_t b = get_varint(p);
        const char* label =
            (tag & kLabelBit) != 0 ? labels_[get_varint(p)] : nullptr;
        f(TraceRecord{SimTime{static_cast<std::int64_t>(t)}, id, a, b,
                      cluster, node,
                      static_cast<RecordKind>(tag & (kLabelBit - 1)), label});
      }
    }
  }

 private:
  struct Chunk {
    std::array<std::uint8_t, kChunkBytes> bytes;
    std::size_t used{0};
  };

  static std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
    while (v >= 0x80) {
      *p++ = static_cast<std::uint8_t>(v | 0x80);
      v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
  }

  static std::uint64_t get_varint(const std::uint8_t*& p) {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (byte < 0x80) return v;
    }
  }

  /// Index of `label` in labels_, appending it on first sight.  Labels are
  /// campaign source names, a handful per run, so a scan is enough.
  std::size_t label_index(const char* label) {
    label_bytes_ += std::strlen(label);
    const auto it = std::find(labels_.begin(), labels_.end(), label);
    if (it != labels_.end()) {
      return static_cast<std::size_t>(it - labels_.begin());
    }
    labels_.push_back(label);
    return labels_.size() - 1;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<const char*> labels_;
  std::array<std::size_t, kRecordKinds> counts_{};
  std::uint64_t last_t_{0};
  std::size_t size_{0};
  std::size_t bytes_{0};
  std::size_t label_bytes_{0};
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
