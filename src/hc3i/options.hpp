#pragma once

// HC3I tunables.
//
// The defaults reproduce the paper's protocol exactly; the non-default
// settings implement the extensions the paper sketches in §7 (transitive
// DDV piggybacking, configurable stable-storage replication degree) and a
// fault-injection switch the tests use to prove the consistency checker
// catches broken protocols.

#include <cstdint>

#include "util/time.hpp"

namespace hc3i::core {

/// Protocol configuration knobs.
struct Hc3iOptions {
  /// Stable-storage replication degree: extra copies of each node's
  /// checkpoint part on neighbour nodes.  1 in the paper ("only one
  /// simultaneous fault in a cluster is tolerated"); §7 proposes making it
  /// user-chosen.
  std::uint32_t replication{1};

  /// Paper §7: piggy-back the whole DDV instead of only the SN, adding
  /// transitivity to dependency tracking "in order to take less forced
  /// checkpoints".
  bool transitive_ddv{false};

  /// Capture in-flight intra-cluster messages as CLC channel state.
  /// Always on for correct operation; switching it off is used by the
  /// negative tests to demonstrate that the consistency ledger detects
  /// the resulting message loss.
  bool capture_channel_state{true};
};

}  // namespace hc3i::core
