#include "obs/export.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>

#include "util/time.hpp"

namespace hc3i::obs {

namespace {

/// `v / 10^digits` rendered with exactly `digits` fraction digits, using
/// integer math only, so output never depends on floating-point formatting.
struct Fixed {
  std::uint64_t v;
  unsigned digits;
};

/// trace_event timestamps are microseconds: "<us>.<3-digit ns remainder>".
constexpr Fixed us(std::uint64_t ns) { return Fixed{ns, 3}; }

/// Formats output lines into a fixed stack buffer and appends each to the
/// output once: fixed fragments by memcpy, integers by std::to_chars.
///
/// Everything passed to str() is fixed by the line's kind (names, keys,
/// separators) and num()/fixed() have a widest rendering per argument
/// type, so rendering into Width below bounds a kind's buffered bytes at
/// compile time; the static_asserts check those bounds against kCap.  Text
/// of unbounded length (campaign labels) bypasses the buffer via text().
class Line {
 public:
  static constexpr std::size_t kCap = 256;

  explicit Line(std::string& out) : out_(out) {}

  void str(std::string_view s) {
    std::memcpy(end_, s.data(), s.size());
    end_ += s.size();
  }
  template <std::unsigned_integral T>
  void num(T v) {
    end_ = std::to_chars(end_, buf_ + kCap, v).ptr;
  }
  void fixed(Fixed f) {
    std::uint64_t scale = 1;
    for (unsigned i = 0; i < f.digits; ++i) scale *= 10;
    num(f.v / scale);
    *end_++ = '.';
    std::uint64_t frac = f.v % scale;
    for (char* p = end_ + f.digits; p != end_; frac /= 10) {
      *--p = static_cast<char>('0' + frac % 10);
    }
    end_ += f.digits;
  }
  void stamp(SimTime t) {
    end_ += format_time(t, end_, static_cast<std::size_t>(buf_ + kCap - end_));
  }
  void text(std::string_view s) {
    flush();
    out_.append(s);
  }
  void flush() {
    out_.append(buf_, static_cast<std::size_t>(end_ - buf_));
    end_ = buf_;
  }

 private:
  std::string& out_;
  char buf_[kCap]{};
  char* end_{buf_};
};

/// Measuring sink with Line's interface: each call adds the widest
/// rendering its argument type allows.  text() adds nothing; callers count
/// labels themselves.
struct Width {
  std::size_t n{0};

  constexpr void str(std::string_view s) { n += s.size(); }
  template <std::unsigned_integral T>
  constexpr void num(T) {
    n += std::numeric_limits<T>::digits10 + 1;
  }
  /// At most 20 digits in total, plus the point.
  constexpr void fixed(Fixed) {
    n += std::numeric_limits<std::uint64_t>::digits10 + 2;
  }
  /// format_time's widest rendering, NUL excluded.
  constexpr void stamp(SimTime) { n += kTimeBufSize - 1; }
  constexpr void text(std::string_view) {}
};

/// Write `parts` in order: string literals and views as text, unsigned
/// integers in decimal, Fixed as a fixed-point number, SimTime as
/// format_time renders it.
template <typename Out, typename... Parts>
constexpr void put(Out& o, const Parts&... parts) {
  const auto one = [&o](const auto& part) {
    using P = std::remove_cvref_t<decltype(part)>;
    if constexpr (std::is_same_v<P, Fixed>) {
      o.fixed(part);
    } else if constexpr (std::is_same_v<P, SimTime>) {
      o.stamp(part);
    } else if constexpr (std::unsigned_integral<P>) {
      o.num(part);
    } else if constexpr (std::is_array_v<P>) {
      o.str(std::string_view(part, std::extent_v<P> - 1));
    } else {
      o.str(part);
    }
  };
  (one(parts), ...);
}

template <typename Out>
constexpr void put_head(Out& o, std::string_view name, std::string_view cat,
                        std::string_view ph, const TraceRecord& r) {
  put(o, "{\"name\":\"", name, "\",\"cat\":\"", cat, "\",\"ph\":\"", ph,
      "\",\"pid\":0,\"tid\":", r.cluster, ",\"ts\":",
      us(static_cast<std::uint64_t>(r.t.ns)));
}

template <typename Out>
constexpr void render_record(Out& o, const TraceRecord& r) {
  const std::string_view name = to_label(r.kind);
  switch (r.kind) {
    case RecordKind::kClcRoundBegin:
      put_head(o, name, "clc", "b", r);
      put(o, ",\"id\":", r.id, ",\"args\":{\"forced\":", r.a, "}}");
      break;
    case RecordKind::kClcAck:
      put_head(o, name, "clc", "i", r);
      put(o, ",\"s\":\"t\",\"args\":{\"round\":", r.id, ",\"node\":", r.node,
          ",\"acks\":", r.a, ",\"needed\":", r.b, "}}");
      break;
    case RecordKind::kClcCommit:
      // Closes the async span opened by the matching kClcRoundBegin; the
      // name must equal the begin event's ("clc_round"), so the commit
      // payload rides in args.
      put_head(o, "clc_round", "clc", "e", r);
      put(o, ",\"id\":", r.id, ",\"args\":{\"sn\":", r.a, ",\"forced\":", r.b,
          "}}");
      break;
    case RecordKind::kCkptWrite:
    case RecordKind::kChainRead:
      put_head(o, name, "storage", "X", r);
      put(o, ",\"dur\":", us(r.b), ",\"args\":{\"node\":", r.node,
          ",\"bytes\":", r.a, "}}");
      break;
    case RecordKind::kFailure:
    case RecordKind::kNodeRestored:
      put_head(o, name, "fault", "i", r);
      put(o, ",\"s\":\"t\",\"args\":{\"node\":", r.node, "}}");
      break;
    case RecordKind::kCampaignInject:
      put_head(o, name, "fault", "i", r);
      put(o, ",\"s\":\"t\",\"args\":{\"node\":", r.node, ",\"source\":\"");
      o.text(r.label != nullptr ? r.label : "");
      put(o, "\"}}");
      break;
    case RecordKind::kRollbackBegin:
      if (r.b != 0) {
        // Alert-triggered: the cluster rolls back inside another cluster's
        // recovery window, so it gets an instant, not a span of its own.
        put_head(o, name, "recovery", "i", r);
        put(o, ",\"s\":\"t\",\"args\":{\"to_sn\":", r.a, ",\"inc\":", r.id,
            "}}");
        break;
      }
      // Fault-triggered: an async "recovery" span per cluster, closed by
      // kRecoveryEnd.  A second fault into a recovering cluster queues
      // (federation invariant), so the cluster id is a valid span id —
      // spans on one track never overlap.
      put_head(o, "recovery", "recovery", "b", r);
      put(o, ",\"id\":", r.cluster, ",\"args\":{\"to_sn\":", r.a, "}}");
      break;
    case RecordKind::kRecoveryEnd:
      put_head(o, "recovery", "recovery", "e", r);
      put(o, ",\"id\":", r.cluster, "}");
      break;
    case RecordKind::kGcRoundBegin:
      put_head(o, name, "gc", "i", r);
      put(o, ",\"s\":\"t\",\"args\":{\"round\":", r.id, "}}");
      break;
    case RecordKind::kGcPrune:
      put_head(o, name, "gc", "i", r);
      put(o, ",\"s\":\"t\",\"args\":{\"round\":", r.id, ",\"removed\":", r.a,
          "}}");
      break;
  }
}

/// The paper's §5.1 protocol-level text: one line per record, prefixed
/// with the simulated time.
template <typename Out>
constexpr void render_text(Out& o, const TraceRecord& r) {
  put(o, "[", r.t, "] ");
  switch (r.kind) {
    case RecordKind::kClcRoundBegin:
      put(o, "C", r.cluster, " CLC round ", r.id,
          r.a != 0 ? " (forced)" : " (timer)");
      break;
    case RecordKind::kClcAck:
      put(o, "C", r.cluster, " CLC round ", r.id, " ack from node ", r.node,
          " (", r.a, "/", r.b, ")");
      break;
    case RecordKind::kClcCommit:
      put(o, "C", r.cluster, " commit CLC sn=", r.a);
      break;
    case RecordKind::kCkptWrite:
      put(o, "C", r.cluster, " ckpt write node ", r.node, ": ", r.a,
          " bytes, stall ", r.b, " ns");
      break;
    case RecordKind::kChainRead:
      put(o, "C", r.cluster, " chain read: ", r.a, " bytes, ", r.b, " ns");
      break;
    case RecordKind::kFailure:
      put(o, "FAILURE node ", r.node, " (cluster ", r.cluster, ")");
      break;
    case RecordKind::kNodeRestored:
      put(o, "RESTORED node ", r.node, " (cluster ", r.cluster, ")");
      break;
    case RecordKind::kRollbackBegin:
      put(o, "C", r.cluster, " ROLLBACK to sn=", r.a, " inc=", r.id,
          r.b != 0 ? " (alert)" : " (fault)");
      break;
    case RecordKind::kRecoveryEnd:
      put(o, "RECOVERY complete (cluster ", r.cluster, ")");
      break;
    case RecordKind::kGcRoundBegin:
      put(o, "GC round ", r.id, " start");
      break;
    case RecordKind::kGcPrune:
      put(o, "C", r.cluster, " GC prune: ", r.a + r.b, " -> ", r.b);
      break;
    case RecordKind::kCampaignInject:
      put(o, "INJECT node ", r.node, " (cluster ", r.cluster, ") source=");
      o.text(r.label != nullptr ? r.label : "");
      break;
  }
  put(o, "\n");
}

template <typename Out>
constexpr void render_sample(Out& o, const MetricsSample& s) {
  put(o, Fixed{static_cast<std::uint64_t>(s.t.ns), 9}, "\t", s.clc_forced,
      "\t", s.clc_total, "\t", s.in_flight, "\t", s.app_delivered, "\t",
      s.log_resent_bytes, "\t", s.ckpt_bytes_written, "\t", s.ckpt_stall_us,
      "\t", s.recovery_read_us, "\n");
}

constexpr std::string_view kTraceHead = "{\"traceEvents\":[";
constexpr std::string_view kTraceTail = "\n],\"displayTimeUnit\":\"ms\"}\n";
constexpr std::string_view kFirstSep = "\n";
constexpr std::string_view kSep = ",\n";
constexpr std::string_view kTsvHeader =
    "time_s\tclc_forced\tclc_total\tin_flight\tapp_delivered\t"
    "log_resent_bytes\tckpt_bytes_written\tckpt_stall_us\t"
    "recovery_read_us\n";

/// Buffered bytes of one line per record kind under `render`, plus
/// `extra`.  Renderings branch only on whether a or b is zero (forced
/// round, alert rollback), so each kind is measured with both at 0 and 1.
template <typename Render>
constexpr std::array<std::size_t, kRecordKinds> line_bounds(Render render,
                                                            std::size_t extra) {
  std::array<std::size_t, kRecordKinds> bound{};
  for (std::size_t k = 0; k < kRecordKinds; ++k) {
    for (const unsigned flags : {0u, 1u, 2u, 3u}) {
      Width w;
      TraceRecord r;
      r.kind = static_cast<RecordKind>(k);
      r.a = flags & 1u;
      r.b = flags >> 1;
      render(w, r);
      bound[k] = std::max(bound[k], extra + w.n);
    }
  }
  return bound;
}

/// Per-kind JSON line bound, separator included.
constexpr std::array<std::size_t, kRecordKinds> kLineBound = line_bounds(
    [](auto& o, const TraceRecord& r) { render_record(o, r); }, kSep.size());
static_assert(*std::max_element(kLineBound.begin(), kLineBound.end()) <=
              Line::kCap);

/// Per-kind text line bound, newline included.
constexpr std::array<std::size_t, kRecordKinds> kTextBound = line_bounds(
    [](auto& o, const TraceRecord& r) { render_text(o, r); }, 0);
static_assert(*std::max_element(kTextBound.begin(), kTextBound.end()) <=
              Line::kCap);

constexpr std::size_t kRowBound = [] {
  Width w;
  render_sample(w, MetricsSample{});
  return w.n;
}();
static_assert(kRowBound <= Line::kCap);

/// Every record through `render`, one line each, between `head` and
/// `tail`.  One reservation covers the widest rendering of every record
/// (`bounds` per kind times the buffer's count of that kind, plus its label
/// bytes), so the string never reallocates; pages past what is written
/// stay untouched.
template <typename Render>
std::string render_records(const TraceBuffer& records,
                           const std::array<std::size_t, kRecordKinds>& bounds,
                           std::string_view head, std::string_view tail,
                           Render render) {
  std::size_t bound = head.size() + tail.size() + records.label_bytes();
  for (std::size_t k = 0; k < kRecordKinds; ++k) {
    bound += bounds[k] * records.count(static_cast<RecordKind>(k));
  }
  std::string out;
  out.reserve(bound);
  out += head;
  Line line(out);
  records.for_each([&](const TraceRecord& r) {
    render(line, r);
    line.flush();
  });
  out += tail;
  return out;
}

}  // namespace

std::string trace_json(const Recording& rec) {
  std::string_view sep = kFirstSep;
  return render_records(rec.recorder.records(), kLineBound, kTraceHead,
                        kTraceTail, [&sep](Line& line, const TraceRecord& r) {
                          line.str(sep);
                          sep = kSep;
                          render_record(line, r);
                        });
}

std::string trace_text(const Recording& rec) {
  return render_records(
      rec.recorder.records(), kTextBound, {}, {},
      [](Line& line, const TraceRecord& r) { render_text(line, r); });
}

std::string metrics_tsv(const Recording& rec) {
  std::string out;
  out.reserve(kTsvHeader.size() + rec.samples.size() * kRowBound);
  out += kTsvHeader;
  Line line(out);
  for (const MetricsSample& s : rec.samples) {
    render_sample(line, s);
    line.flush();
  }
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = n == content.size() && std::fclose(f) == 0;
  if (n != content.size()) std::fclose(f);
  return ok;
}

}  // namespace hc3i::obs
