#pragma once

// Application-state capture interface.
//
// The paper's process state is "all the data it needs to be restarted (the
// virtual memory, list of opened files, sockets, ...)".  The simulator
// abstracts that into AppSnapshot — an opaque progress marker plus a
// modelled size — and AppHandle, the hooks a checkpointing protocol uses to
// capture and restore one process.

#include <cstdint>

#include "net/message.hpp"
#include "storage/state_region.hpp"
#include "util/time.hpp"

namespace hc3i::proto {

/// A captured process state.
struct AppSnapshot {
  /// Monotone per-node progress counter at capture (completed work units).
  std::uint64_t progress{0};
  /// Virtual compute time accumulated at capture (lost-work accounting).
  SimTime virtual_work{};
  /// Modelled state size in bytes.
  std::uint64_t state_bytes{0};
  /// Bytes this capture actually writes to storage: state_bytes for a full
  /// image, the touched-range size for an incremental delta.  Protocols that
  /// never asked for delta capture leave it equal to state_bytes.
  std::uint64_t delta_bytes{0};
  /// True when this snapshot is a delta over the node's previous committed
  /// capture (restore must replay the chain back to the last full image).
  bool incremental{false};
  /// One opaque application word, restored as captured (the workload's
  /// delivered-message count).
  std::uint64_t opaque{0};
};
// Every retained CLC keeps one snapshot per node (proto::NodePart).
static_assert(sizeof(AppSnapshot) <= 48, "AppSnapshot grew past 48 bytes");

/// Per-process hooks the protocol layer drives. Implemented by the workload
/// (src/app) and by test fixtures.
class AppHandle {
 public:
  virtual ~AppHandle() = default;

  /// Capture the process state (cheap: the workload is synthetic).  This
  /// const overload is a pure read — lost-work accounting and baselines use
  /// it — and never consumes dirty-range tracking.
  virtual AppSnapshot snapshot() const = 0;

  /// Capture for checkpoint storage: consumes the dirty-range watermark, so
  /// kIncremental yields a delta over the previous storage capture.  The
  /// default forwards to the read-only overload (full image, no tracking)
  /// for fixtures and apps without a modelled state region.
  virtual AppSnapshot snapshot(storage::CaptureMode mode) {
    (void)mode;
    return snapshot();
  }

  /// Stop all application activity immediately (cancel pending compute).
  /// Called at the instant a rollback is decided; restore() follows once
  /// the modelled state transfer completes.
  virtual void freeze() = 0;

  /// Restore the process to a previously captured state and resume
  /// execution from there (the protocol has already cleaned the network).
  virtual void restore(const AppSnapshot& snap) = 0;

  /// Deliver an application message to the process.
  virtual void deliver(const net::Envelope& env) = 0;
};

}  // namespace hc3i::proto
