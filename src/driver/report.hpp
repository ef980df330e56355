#pragma once

// Human-readable run reports.
//
// The paper's simulator prints "statistical data, as messages count in
// clusters and between each cluster, number of stored CLCs, number of
// protocol messages" as its lowest-level output (§5.1).  render_report
// produces that summary from a RunResult — used by the hc3i_sim CLI tool
// and handy from examples.

#include <string>

#include "driver/run.hpp"

namespace hc3i::driver {

/// Render the end-of-run statistics block: the message census matrix,
/// per-cluster CLC counts, rollback/GC/log statistics and the consistency
/// verdict.  `clusters` is the federation size the run used.
std::string render_report(const RunResult& result, std::size_t clusters);

}  // namespace hc3i::driver
