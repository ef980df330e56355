#pragma once

// Exporters for the observability layer.
//
// trace_json renders the structured trace as Chrome trace_event JSON
// (load it at ui.perfetto.dev or chrome://tracing): CLC rounds and
// rollback->recovery windows become async "b"/"e" spans on per-cluster
// tracks, checkpoint writes and recovery chain reads become "X" complete
// events with their stall as the duration, and acks / failures / GC
// prunes / alert-triggered rollbacks become "i" instants.  trace_text
// renders the same records as the paper's §5.1 protocol-level text trace,
// one time-stamped line each.  metrics_tsv renders the sampler series as a
// tab-separated table with a fixed column set.
//
// All renderings are pure functions of the recording in emission order
// (the JSON and TSV timestamps use integer math only), so a fixed seed
// yields byte-identical output (CI compares two same-seed passes with cmp).
// Each line is formatted into a bounded stack buffer and appended once to
// a string reserved up front from per-kind worst-case line lengths, so
// rendering never reallocates the output.

#include <string>

#include "obs/recording.hpp"

namespace hc3i::obs {

/// Chrome/Perfetto trace_event JSON for the structured trace.
std::string trace_json(const Recording& rec);

/// One "[<time>] <event>" line per record, e.g.
/// "[35m00.0s] FAILURE node 5 (cluster 1)".
std::string trace_text(const Recording& rec);

/// Tab-separated metrics time series (header row + one row per sample).
std::string metrics_tsv(const Recording& rec);

/// Write `content` to `path` (truncating). Returns false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace hc3i::obs
