// Tests for the run-report rendering and the disk-loading path used by the
// hc3i_sim standalone tool.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "config/parser.hpp"
#include "config/presets.hpp"
#include "driver/report.hpp"
#include "driver/run.hpp"

namespace hc3i::testing {
namespace {

driver::RunResult tiny_run() {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 3);
  opts.spec.application.total_time = minutes(30);
  opts.spec.timers.gc_period = minutes(12);
  opts.campaign.kills.push_back({minutes(20), NodeId{1}});
  return driver::run_simulation(opts);
}

TEST(Report, ContainsEverySection) {
  const auto result = tiny_run();
  const std::string report = driver::render_report(result, 2);
  for (const char* needle :
       {"application messages", "cluster-level checkpoints",
        "protocol traffic", "fault tolerance", "garbage collection",
        "consistency", "CONSISTENT"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
  // The census matrix carries real values.
  EXPECT_NE(report.find("C0"), std::string::npos);
  EXPECT_NE(report.find("failures injected        : 1"), std::string::npos);
}

TEST(Report, ViolationsAreRendered) {
  // Sabotaged protocol (no channel capture) across a few seeds; whichever
  // run trips the oracle must render its violations.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    driver::RunOptions opts;
    opts.spec = config::small_test_spec(2, 4);
    opts.spec.application.total_time = minutes(30);
    for (auto& c : opts.spec.application.clusters) {
      c.mean_compute = seconds(2);
      c.message_bytes = 4 * 1024 * 1024;  // keep messages in flight
    }
    for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(3);
    opts.hc3i.capture_channel_state = false;  // sabotage (negative control)
    opts.campaign.kills.push_back({minutes(13), NodeId{1}});
    opts.seed = seed;
    opts.validate = false;
    const auto result = driver::run_simulation(opts);
    if (result.violations.empty()) continue;
    const std::string report = driver::render_report(result, 2);
    EXPECT_NE(report.find("VIOLATIONS"), std::string::npos);
    return;
  }
  FAIL() << "no seed tripped the sabotaged run";
}

TEST(ConfigFiles, LoadRunSpecFromDisk) {
  // Load three real files, as the hc3i_sim tool does.
  const auto dir = std::string(::testing::TempDir());
  const auto topo_path = dir + "/hc3i_topo.conf";
  const auto app_path = dir + "/hc3i_app.conf";
  const auto timers_path = dir + "/hc3i_timers.conf";
  {
    std::ofstream(topo_path) << "[federation]\nclusters = 2\n"
                                "[cluster 0]\nnodes = 100\nlatency = 10us\n"
                                "bandwidth = 80Mb/s\n"
                                "[cluster 1]\nnodes = 100\nlatency = 10us\n"
                                "bandwidth = 80Mb/s\n"
                                "[link 0 1]\nlatency = 150us\n"
                                "bandwidth = 100Mb/s\n";
    std::ofstream(app_path) << "[application]\ntotal_time = 10h\n"
                               "[cluster 0]\nmean_compute = 2min\n"
                               "[cluster 1]\nmean_compute = 3min\n"
                               "[traffic 0]\n0 = 0.95\n1 = 0.05\n"
                               "[traffic 1]\n1 = 1.0\n";
    std::ofstream(timers_path) << "[cluster 0]\nclc_period = 30min\n"
                                  "[cluster 1]\nclc_period = inf\n";
  }
  const config::RunSpec spec =
      config::load_run_spec(topo_path, app_path, timers_path);
  EXPECT_EQ(spec.topology.total_nodes(), 200u);
  EXPECT_EQ(spec.timers.clusters[0].clc_period, minutes(30));
  EXPECT_TRUE(spec.timers.clusters[1].clc_period.is_infinite());
  std::remove(topo_path.c_str());
  std::remove(app_path.c_str());
  std::remove(timers_path.c_str());
}

TEST(ConfigFiles, MissingFileFailsCleanly) {
  EXPECT_THROW(config::load_run_spec("/nonexistent/topo", "/nonexistent/app",
                                     "/nonexistent/timers"),
               config::ParseError);
}

}  // namespace
}  // namespace hc3i::testing
