// Unit tests for src/config: the three file formats, presets, and the
// committed files under configs/.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "batch/sweep.hpp"
#include "config/parser.hpp"
#include "config/presets.hpp"
#include "fault/campaign.hpp"

namespace hc3i::config {
namespace {

constexpr const char* kTopology = R"(
# reference topology (paper 5.2)
[federation]
clusters = 2

[cluster 0]
nodes = 100
latency = 10us
bandwidth = 80Mb/s

[cluster 1]
nodes = 100
latency = 10us
bandwidth = 80Mb/s

[link 0 1]
latency = 150us
bandwidth = 100Mb/s
)";

TEST(Parser, SectionsAndComments) {
  const auto sections = parse_sections("# c\n[alpha 1 2]\nk = v # trail\n", "t");
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].name, "alpha");
  EXPECT_EQ(sections[0].args, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(sections[0].values.at("k"), "v");
}

TEST(Parser, RejectsMalformedLines) {
  EXPECT_THROW(parse_sections("[unterminated\n", "t"), ParseError);
  EXPECT_THROW(parse_sections("key = early\n", "t"), ParseError);
  EXPECT_THROW(parse_sections("[s]\nno equals\n", "t"), ParseError);
  EXPECT_THROW(parse_sections("[s]\nk=1\nk=2\n", "t"), ParseError);
  EXPECT_THROW(parse_sections("[]\n", "t"), ParseError);
}

TEST(Topology, ParsesReference) {
  const TopologySpec topo = parse_topology(kTopology);
  EXPECT_EQ(topo.cluster_count(), 2u);
  EXPECT_EQ(topo.total_nodes(), 200u);
  EXPECT_EQ(topo.clusters[0].san.latency, microseconds(10));
  EXPECT_DOUBLE_EQ(topo.clusters[0].san.bytes_per_sec, 80e6 / 8);
  EXPECT_EQ(topo.inter_link(ClusterId{0}, ClusterId{1}).latency,
            microseconds(150));
}

TEST(Topology, RejectsInconsistency) {
  EXPECT_THROW(parse_topology("[cluster 0]\nnodes=2\n"), ParseError);  // no fed
  EXPECT_THROW(parse_topology("[federation]\nclusters = 2\n"), ParseError);
  EXPECT_THROW(parse_topology("[federation]\nclusters = 1\n"
                              "[cluster 0]\nnodes = 0\nlatency = 1us\n"
                              "bandwidth = 1Mb/s\n"),
               CheckFailure);  // zero nodes fails validation
  EXPECT_THROW(parse_topology("[federation]\nclusters = 1\n"
                              "[cluster 7]\nnodes = 1\nlatency = 1us\n"
                              "bandwidth = 1Mb/s\n"),
               ParseError);  // index out of range
}

TEST(Application, ParsesAndValidates) {
  const TopologySpec topo = parse_topology(kTopology);
  const auto app = parse_application(R"(
[application]
total_time = 10h
state_size = 8MB

[cluster 0]
mean_compute = 2min
message_size = 10KB

[cluster 1]
mean_compute = 3min

[traffic 0]
0 = 0.95
1 = 0.05

[traffic 1]
1 = 1.0
)",
                                     topo);
  EXPECT_EQ(app.total_time, hours(10));
  EXPECT_EQ(app.state_bytes, 8u * 1024 * 1024);
  EXPECT_EQ(app.clusters[0].mean_compute, minutes(2));
  EXPECT_DOUBLE_EQ(app.clusters[0].traffic[1], 0.05);
  EXPECT_DOUBLE_EQ(app.clusters[1].traffic[0], 0.0);
}

TEST(Application, RejectsBadTraffic) {
  const TopologySpec topo = parse_topology(kTopology);
  EXPECT_THROW(parse_application(R"(
[application]
total_time = 1h
[cluster 0]
mean_compute = 1min
[cluster 1]
mean_compute = 1min
[traffic 0]
5 = 1.0
)",
                                 topo),
               ParseError);
}

TEST(Timers, ParsesWithDefaults) {
  const TopologySpec topo = parse_topology(kTopology);
  const auto timers = parse_timers(R"(
[timers]
gc_period = 2h
detection_delay = 100ms

[cluster 0]
clc_period = 30min

[cluster 1]
clc_period = inf
)",
                                   topo);
  EXPECT_EQ(timers.gc_period, hours(2));
  EXPECT_EQ(timers.clusters[0].clc_period, minutes(30));
  EXPECT_TRUE(timers.clusters[1].clc_period.is_infinite());
}

TEST(Timers, ParsesInfinitePeriods) {
  const TopologySpec topo = parse_topology(kTopology);
  EXPECT_EQ(parse_timers("[timers]\ngc_period = inf\n"
                         "[cluster 0]\nclc_period = inf\n"
                         "[cluster 1]\nclc_period = 30min\n",
                         topo),
            paper_reference_timers(SimTime::infinity(), minutes(30)));
}

// A misspelled key is an error in every config kind, never a silent default.
void expect_parse_error(const std::function<void()>& parse,
                        const std::string& message) {
  try {
    parse();
    ADD_FAILURE() << "no ParseError, expected: " << message;
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

TEST(UnknownKeys, TopologyRejectsMisspelledKey) {
  expect_parse_error(
      [] {
        parse_topology("[federation]\nclusters = 1\n[cluster 0]\n"
                       "nodes = 2\nlatency = 1us\nbandwidth = 1Mb/s\n"
                       "storage_latnecy = 2ms\n",
                       "t.conf");
      },
      "t.conf:3: unknown key 'storage_latnecy' in [cluster]");
}

TEST(UnknownKeys, ApplicationRejectsMisspelledKey) {
  const TopologySpec topo = parse_topology(kTopology);
  expect_parse_error(
      [&topo] {
        parse_application("[application]\ntotal_time = 1h\nstate_sise = 8MB\n",
                          topo, "a.conf");
      },
      "a.conf:1: unknown key 'state_sise' in [application]");
}

TEST(UnknownKeys, TimersRejectsMisspelledKey) {
  const TopologySpec topo = parse_topology(kTopology);
  expect_parse_error(
      [&topo] { parse_timers("[timers]\ngc_perod = 1h\n", topo, "t.conf"); },
      "t.conf:1: unknown key 'gc_perod' in [timers]");
}

TEST(UnknownKeys, CampaignRejectsMisspelledKey) {
  // Without the check this ran as a federation-wide stream.
  const TopologySpec topo = parse_topology(kTopology);
  expect_parse_error(
      [&topo] {
        parse_campaign("[stream]\nmtbf = 20min\nclsuter = 1\n", topo, "c");
      },
      "c:1: unknown key 'clsuter' in [stream] (known: mtbf, cluster, start, "
      "stop)");
}

TEST(UnknownKeys, TopologyRejectsFederationMtbf) {
  // No run from files reads a topology MTBF, so the key must fail rather
  // than be ignored; MTBF failures are a campaign's [stream] section.
  expect_parse_error(
      [] {
        parse_topology("[federation]\nclusters = 1\nmtbf = 5min\n"
                       "[cluster 0]\nnodes = 2\nlatency = 1us\n"
                       "bandwidth = 1Mb/s\n",
                       "t.conf");
      },
      "t.conf:1: unknown key 'mtbf' in [federation] (known: clusters)");
}

TEST(Presets, ReferenceMatchesPaperParameters) {
  const TopologySpec topo = paper_reference_topology();
  EXPECT_EQ(topo.cluster_count(), 2u);
  EXPECT_EQ(topo.clusters[0].nodes, 100u);
  EXPECT_EQ(topo.clusters[0].san.latency, microseconds(10));   // Myrinet-like
  EXPECT_EQ(topo.inter_link(ClusterId{0}, ClusterId{1}).latency,
            microseconds(150));                                 // Ethernet-like
  const ApplicationSpec app = paper_reference_application();
  EXPECT_EQ(app.total_time, hours(10));
  // Expected sends over 10 h match the Table 1 census.
  const double sends0 =
      app.total_time.seconds() / app.clusters[0].mean_compute.seconds() * 100;
  EXPECT_NEAR(sends0, 2920 + 145, 1.0);
  const double inter0 = sends0 * app.clusters[0].traffic[1] /
                        (app.clusters[0].traffic[0] + app.clusters[0].traffic[1]);
  EXPECT_NEAR(inter0, 145, 0.5);
}

TEST(Presets, ThreeClusterShape) {
  const TopologySpec topo = paper_three_cluster_topology();
  EXPECT_EQ(topo.cluster_count(), 3u);
  const ApplicationSpec app = paper_three_cluster_application();
  // "approximately 200 messages that leave ... each cluster"
  for (std::size_t c = 0; c < 3; ++c) {
    const auto& row = app.clusters[c].traffic;
    double inter = 0;
    for (std::size_t j = 0; j < 3; ++j) {
      if (j != c) inter += row[j];
    }
    const double total = inter + row[c];
    const double sends =
        app.total_time.seconds() / app.clusters[c].mean_compute.seconds() * 100;
    EXPECT_NEAR(sends * inter / total, 200, 1.0);
  }
}

TEST(Presets, SmallSpecValidates) {
  for (std::size_t clusters : {1u, 2u, 3u, 4u}) {
    const RunSpec spec = small_test_spec(clusters, 4);
    EXPECT_NO_THROW(spec.validate());
  }
}

/// The paper's motivating code-coupling application (Fig. 1): simulation
/// -> treatment -> display stages pinned to three 32-node clusters with
/// pipelined inter-cluster traffic, 10 h under 30-min CLC timers.
RunSpec pipeline_spec() {
  RunSpec spec;
  const LinkSpec san{microseconds(10), 80e6 / 8};
  const LinkSpec wan{microseconds(150), 100e6 / 8};
  spec.topology.clusters.assign(3, ClusterSpec{32, san});
  spec.topology.inter.assign(3, std::vector<LinkSpec>(3));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) spec.topology.inter[i][j] = wan;
    }
  }
  spec.application.total_time = hours(10);
  spec.application.state_bytes = 8ull * 1024 * 1024;
  // The simulation stage computes hard and streams results downstream;
  // treatment relays; display only consumes.
  spec.application.clusters = {{minutes(2), 64 * 1024, {0.92, 0.08, 0.0}},
                               {minutes(3), 32 * 1024, {0.0, 0.90, 0.10}},
                               {minutes(4), 16 * 1024, {0.0, 0.0, 1.0}}};
  spec.timers.clusters.assign(3, ClusterTimerSpec{minutes(30)});
  spec.timers.gc_period = hours(2);
  return spec;
}

fault::Campaign one_kill(SimTime at, NodeId victim) {
  fault::Campaign plan;
  plan.kills.push_back(fault::KillSpec{at, victim});
  return plan;
}

// The files under configs/ feed the hc3i_sim ctests and five goldens.  Each
// must parse to the preset it stands for, so a preset that changes without
// its files (or a file edited away from its preset) fails here, not in a
// golden diff; a file with no preset listed here fails too.
TEST(CommittedConfigs, MatchTheirPresets) {
  RunSpec small = small_test_spec(2, 8);
  small.application.total_time = hours(1);
  fault::Campaign undrainable;  // three kills 1 ms before the horizon
  fault::BurstSpec burst;
  burst.cluster = ClusterId{1};
  burst.kills = 3;
  burst.at = small.application.total_time - milliseconds(1);
  burst.window = SimTime::zero();
  undrainable.bursts.push_back(burst);

  // Three small clusters whose seed-7 run cascades one fault into three
  // cluster rollbacks.
  RunSpec recovery = small_test_spec(3, 4);
  recovery.application.total_time = hours(1);
  for (ClusterTimerSpec& t : recovery.timers.clusters) {
    t.clc_period = minutes(10);
  }

  const RunSpec scale = scale_federation_spec(10, 100, minutes(30));
  TopologySpec scale_storage = scale.topology;
  StorageSpec striped;
  striped.kind = StorageSpec::Kind::kStripedRemote;
  for (ClusterSpec& c : scale_storage.clusters) c.storage = striped;

  // Each directory's three run files, then its campaigns (parsed against
  // the directory's topology).
  const std::map<std::string, RunSpec> runs = {
      {"paper",
       {paper_reference_topology(), paper_reference_application(),
        paper_reference_timers(minutes(30), minutes(30))}},
      {"small", small},
      {"recovery", recovery},
      {"pipeline", pipeline_spec()},
      {"scale", scale},
  };
  const std::map<std::string, fault::Campaign> campaigns = {
      {"small/undrainable.campaign", undrainable},
      {"small/quickstart.campaign", one_kill(minutes(12), NodeId{4})},
      {"recovery/kill.campaign", one_kill(minutes(35), NodeId{5})},
      {"scale/faulty.campaign",
       fault::reference_scale_campaign(10, 100, minutes(30))},
      {"scale/overlap.campaign",
       fault::reference_overlap_campaign(10, 100, minutes(30))},
  };

  const std::filesystem::path root =
      std::filesystem::path(HC3I_SOURCE_DIR) / "configs";
  std::set<std::string> on_disk, listed;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      on_disk.insert(entry.path().lexically_relative(root).generic_string());
    }
  }
  const auto text = [&root, &listed](const std::string& name) {
    listed.insert(name);
    return read_file((root / name).string());
  };
  for (const auto& [dir, spec] : runs) {
    const std::string topology = dir + "/topology.conf";
    const std::string application = dir + "/application.conf";
    const std::string timers = dir + "/timers.conf";
    EXPECT_EQ(parse_topology(text(topology), topology), spec.topology)
        << topology;
    EXPECT_EQ(parse_application(text(application), spec.topology,
                                application),
              spec.application)
        << application;
    EXPECT_EQ(parse_timers(text(timers), spec.topology, timers), spec.timers)
        << timers;
  }
  const std::string storage = "scale/topology_storage.conf";
  EXPECT_EQ(parse_topology(text(storage), storage), scale_storage) << storage;
  for (const auto& [name, plan] : campaigns) {
    const RunSpec& spec = runs.at(name.substr(0, name.find('/')));
    EXPECT_EQ(parse_campaign(text(name), spec.topology, name), plan) << name;
  }
  // The sweep CLI's grids have no preset: each must parse and expand into
  // runnable cases.
  for (const char* name :
       {"sweep/determinism.sweep", "sweep/determinism_storage.sweep",
        "sweep/faulty_scaling.sweep", "sweep/mtbf.sweep",
        "sweep/mtbf_smoke.sweep", "sweep/overlap.sweep",
        "sweep/scaling.sweep", "sweep/storage.sweep", "sweep/wide.sweep"}) {
    listed.insert(name);
    const std::string path = (root / name).string();
    EXPECT_NO_THROW(EXPECT_FALSE(
        batch::expand(batch::parse_sweep(read_file(path), path)).empty()))
        << name;
  }
  EXPECT_EQ(on_disk, listed);  // an unlisted file fails here
}

}  // namespace
}  // namespace hc3i::config
