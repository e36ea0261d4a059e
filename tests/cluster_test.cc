// Rack-scale topology and replica-aware routing (docs/TOPOLOGY.md):
// Topology geometry, the racked hw::Lan (multi-hop timing, oversubscribed
// uplinks, cross-rack byte accounting), ReplicaSelector policy semantics
// (static parity, tie-breaking, load feedback, overload shedding and
// staleness expiry), the flow-level FlowSim model, rack-aware default
// placement, and the end-to-end detailed-sim integration through
// apps::Cluster / DfsClient with the vread_route_* registry counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "cluster/flowsim.h"
#include "cluster/route.h"
#include "cluster/topology.h"
#include "core/vread_daemon.h"
#include "hw/network.h"
#include "mem/buffer.h"
#include "metrics/registry.h"
#include "testutil.h"

namespace vread::cluster {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;

// ------------------------------------------------------------- topology

TEST(Topology, GeometryMapsHostsAndVmsToRacks) {
  Topology t(TopologyConfig{.racks = 3, .hosts_per_rack = 4, .vms_per_host = 2});
  EXPECT_EQ(t.host_count(), 12u);
  EXPECT_EQ(t.vm_count(), 24u);
  EXPECT_EQ(t.rack_of(0), 0u);
  EXPECT_EQ(t.rack_of(3), 0u);
  EXPECT_EQ(t.rack_of(4), 1u);
  EXPECT_EQ(t.rack_of(11), 2u);
  EXPECT_EQ(t.host_of_vm(0), 0u);
  EXPECT_EQ(t.host_of_vm(1), 0u);
  EXPECT_EQ(t.host_of_vm(23), 11u);
  EXPECT_EQ(t.tier(5, 5), PathTier::kSameHost);
  EXPECT_EQ(t.tier(4, 7), PathTier::kSameRack);
  EXPECT_EQ(t.tier(3, 4), PathTier::kCrossRack);
}

TEST(RoutePolicy, ParsesAllNamesAndRejectsJunk) {
  RoutePolicy p;
  ASSERT_TRUE(parse_route_policy("static", p));
  EXPECT_EQ(p, RoutePolicy::kStatic);
  ASSERT_TRUE(parse_route_policy("random", p));
  EXPECT_EQ(p, RoutePolicy::kRandom);
  ASSERT_TRUE(parse_route_policy("aware", p));
  EXPECT_EQ(p, RoutePolicy::kReplicaAware);
  ASSERT_TRUE(parse_route_policy("replica-aware", p));
  EXPECT_EQ(p, RoutePolicy::kReplicaAware);
  EXPECT_FALSE(parse_route_policy("fastest", p));
  for (RoutePolicy rp :
       {RoutePolicy::kStatic, RoutePolicy::kRandom, RoutePolicy::kReplicaAware}) {
    RoutePolicy back;
    ASSERT_TRUE(parse_route_policy(route_policy_name(rp), back));
    EXPECT_EQ(back, rp);
  }
}

// ------------------------------------------------------------ racked LAN

sim::Task timed_transfer(sim::Simulation& sim, hw::Lan& lan, hw::HostId src,
                         hw::HostId dst, std::uint64_t bytes, sim::SimTime* done) {
  co_await lan.transfer(src, dst, bytes);
  *done = sim.now();
}

TEST(RackLan, FlatThreeArgTransferMatchesLegacyEgressTiming) {
  // Without racks the destination-aware path is exactly the single-NIC
  // egress hop: same bytes, same arrival time as one link scheduled alone.
  sim::Simulation sim;
  hw::Lan flat(sim);
  for (int i = 0; i < 2; ++i) flat.add_host();
  hw::NetworkLink legacy(hw::NetworkLink::Config{});
  const sim::SimTime t_legacy = legacy.schedule_at(0, 8 << 20);
  sim::SimTime t_flat = 0;
  sim.spawn(timed_transfer(sim, flat, 0, 1, 8 << 20, &t_flat));
  sim.run();
  ASSERT_GT(t_legacy, 0);
  EXPECT_EQ(t_flat, t_legacy);
  EXPECT_EQ(flat.cross_rack_bytes(), 0u);
}

TEST(RackLan, CrossRackPaysUplinkHopsAndIsCounted) {
  auto run = [](hw::HostId dst, std::uint64_t* crossed) {
    sim::Simulation sim;
    hw::Lan lan(sim);
    lan.configure_racks(hw::Lan::RackConfig{
        .hosts_per_rack = 2,
        .uplink = {.bw_gbps = 40.0, .propagation = sim::us(5)}});
    for (int i = 0; i < 4; ++i) lan.add_host();
    sim::SimTime done = 0;
    sim.spawn(timed_transfer(sim, lan, 0, dst, 8 << 20, &done));
    sim.run();
    *crossed = lan.cross_rack_bytes();
    return done;
  };
  std::uint64_t same_rack_crossed = 0, cross_rack_crossed = 0;
  const sim::SimTime same_rack = run(1, &same_rack_crossed);   // rack 0 -> rack 0
  const sim::SimTime cross_rack = run(2, &cross_rack_crossed);  // rack 0 -> rack 1
  EXPECT_GT(cross_rack, same_rack);
  EXPECT_EQ(same_rack_crossed, 0u);
  EXPECT_EQ(cross_rack_crossed, 8u << 20);
}

TEST(RackLan, OversubscriptionSlowsTheCrossRackPath) {
  auto run = [](double oversub) {
    sim::Simulation sim;
    hw::Lan lan(sim);
    lan.configure_racks(hw::Lan::RackConfig{
        .hosts_per_rack = 2,
        .uplink = {.bw_gbps = 40.0, .propagation = sim::us(5)},
        .oversubscription = oversub});
    for (int i = 0; i < 4; ++i) lan.add_host();
    sim::SimTime done = 0;
    sim.spawn(timed_transfer(sim, lan, 0, 2, 64 << 20, &done));
    sim.run();
    return done;
  };
  // 8:1 oversubscription shrinks the 40 Gbps uplink to 5 Gbps — slower
  // than the host NIC, so the ToR becomes the bottleneck hop.
  EXPECT_GT(run(8.0), run(1.0));
}

// ------------------------------------------------------- replica selector

const std::string kDnA = "dnA";
const std::string kDnB = "dnB";
const std::string kDnC = "dnC";

TEST(ReplicaSelector, StaticPrefersSameHostElsePipelineOrder) {
  ReplicaSelector s(RouteConfig{.policy = RoutePolicy::kStatic});
  // Same-host replica anywhere in the list wins.
  EXPECT_EQ(s.choose(0, {{&kDnA, PathTier::kCrossRack}, {&kDnB, PathTier::kSameHost}}),
            1u);
  // No same-host replica: first location, rack- and load-blind.
  EXPECT_EQ(s.choose(0, {{&kDnA, PathTier::kCrossRack}, {&kDnB, PathTier::kSameRack}}),
            0u);
  EXPECT_EQ(s.chosen(PathTier::kSameHost), 1u);
  EXPECT_EQ(s.chosen(PathTier::kCrossRack), 1u);
}

TEST(ReplicaSelector, AwarePrefersCheaperTier) {
  ReplicaSelector s(RouteConfig{.policy = RoutePolicy::kReplicaAware});
  const std::vector<ReplicaSelector::Candidate> cands = {
      {&kDnA, PathTier::kCrossRack},
      {&kDnB, PathTier::kSameRack},
      {&kDnC, PathTier::kSameHost}};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.choose(0, cands), 2u);
  EXPECT_EQ(s.chosen(PathTier::kSameHost), 10u);
}

TEST(ReplicaSelector, EqualCostTieBreakSplitsEvenly) {
  // Two equal-cost replicas (same tier, no load signal) must share the
  // work ~50/50 under the seeded tie-break — deterministic for the seed,
  // but unbiased across draws.
  ReplicaSelector s(RouteConfig{.policy = RoutePolicy::kReplicaAware});
  const std::vector<ReplicaSelector::Candidate> cands = {
      {&kDnA, PathTier::kSameRack}, {&kDnB, PathTier::kSameRack}};
  int first = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (s.choose(0, cands) == 0) ++first;
  }
  EXPECT_GT(first, kTrials * 2 / 5);
  EXPECT_LT(first, kTrials * 3 / 5);
  // Deterministic: the same seed reproduces the same split exactly.
  ReplicaSelector s2(RouteConfig{.policy = RoutePolicy::kReplicaAware});
  int first2 = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (s2.choose(0, cands) == 0) ++first2;
  }
  EXPECT_EQ(first, first2);
}

TEST(ReplicaSelector, RandomPolicySpreadsAcrossAllReplicas) {
  ReplicaSelector s(RouteConfig{.policy = RoutePolicy::kRandom});
  const std::vector<ReplicaSelector::Candidate> cands = {
      {&kDnA, PathTier::kSameHost}, {&kDnB, PathTier::kCrossRack}};
  int first = 0;
  for (int i = 0; i < 2000; ++i) {
    if (s.choose(0, cands) == 0) ++first;
  }
  // Random ignores tiers entirely: the same-host replica gets only ~half.
  EXPECT_GT(first, 800);
  EXPECT_LT(first, 1200);
}

TEST(ReplicaSelector, FreshLoadFeedbackSteersWithinATier) {
  ReplicaSelector s(RouteConfig{.policy = RoutePolicy::kReplicaAware});
  const std::vector<ReplicaSelector::Candidate> cands = {
      {&kDnA, PathTier::kSameRack}, {&kDnB, PathTier::kSameRack}};
  s.report(sim::ms(1), kDnA, DaemonLoad{.queue_depth = 10});
  s.report(sim::ms(1), kDnB, DaemonLoad{.queue_depth = 0});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.choose(sim::ms(2), cands), 1u);
  // In-flight bytes count toward the score too (kBytesPerLoadUnit).
  s.report(sim::ms(2), kDnB, DaemonLoad{.inflight_bytes = 64ULL << 20});
  EXPECT_EQ(s.choose(sim::ms(3), cands), 0u);
}

TEST(ReplicaSelector, OverloadedReplicaShedsWithinOneFeedbackInterval) {
  // An overloaded same-host daemon loses to a healthy same-rack one —
  // immediately, on the very next choose() after the signal arrives.
  ReplicaSelector s(RouteConfig{.policy = RoutePolicy::kReplicaAware});
  const std::vector<ReplicaSelector::Candidate> cands = {
      {&kDnA, PathTier::kSameHost}, {&kDnB, PathTier::kSameRack}};
  EXPECT_EQ(s.choose(sim::ms(1), cands), 0u);  // healthy: same-host wins
  s.report_overload(sim::ms(1), kDnA);
  EXPECT_EQ(s.choose(sim::ms(2), cands), 1u);  // shed within the interval
  EXPECT_TRUE(s.last_avoided_overload());
  EXPECT_EQ(s.overload_avoided(), 1u);
  // Queue depth at/above kOverloadQueue marks a daemon overloaded even
  // without a kOverloaded status.
  s.report(sim::ms(3), kDnB, DaemonLoad{.queue_depth = kOverloadQueue});
  s.report(sim::ms(3), kDnA, DaemonLoad{});  // A recovered
  EXPECT_EQ(s.choose(sim::ms(4), cands), 0u);
  EXPECT_TRUE(s.last_avoided_overload());
}

TEST(ReplicaSelector, OverloadVerdictExpiresAfterOneTtl) {
  // A daemon that stops being chosen stops producing completions, so its
  // overload verdict must not stick forever: past kFeedbackTtl the signal
  // is stale and the replica is eligible again.
  ReplicaSelector s(RouteConfig{.policy = RoutePolicy::kReplicaAware});
  const std::vector<ReplicaSelector::Candidate> cands = {
      {&kDnA, PathTier::kSameHost}, {&kDnB, PathTier::kSameRack}};
  s.report_overload(sim::ms(10), kDnA);
  EXPECT_EQ(s.choose(sim::ms(11), cands), 1u);               // inside the ttl
  EXPECT_EQ(s.choose(sim::ms(10) + kFeedbackTtl, cands), 1u);      // still inside
  EXPECT_EQ(s.choose(sim::ms(10) + kFeedbackTtl + 1, cands), 0u);  // expired
  EXPECT_FALSE(s.last_avoided_overload());
}

TEST(ReplicaSelector, AllOverloadedFallsBackToCheapestTier) {
  ReplicaSelector s(RouteConfig{.policy = RoutePolicy::kReplicaAware});
  const std::vector<ReplicaSelector::Candidate> cands = {
      {&kDnA, PathTier::kSameHost}, {&kDnB, PathTier::kCrossRack}};
  s.report_overload(sim::ms(1), kDnA);
  s.report_overload(sim::ms(1), kDnB);
  // Nobody is healthy: tier order decides, and no "avoided" credit.
  EXPECT_EQ(s.choose(sim::ms(2), cands), 0u);
  EXPECT_FALSE(s.last_avoided_overload());
  EXPECT_EQ(s.overload_avoided(), 0u);
}

// ----------------------------------------------------------------- flowsim

FlowSimConfig small_flow_cfg(RoutePolicy policy) {
  FlowSimConfig cfg;
  cfg.topo.racks = 4;
  cfg.topo.hosts_per_rack = 4;
  cfg.topo.vms_per_host = 2;
  cfg.topo.oversubscription = 4.0;
  cfg.route.policy = policy;
  cfg.blocks = 256;
  cfg.block_bytes = 1 << 20;
  cfg.reads = 20000;
  return cfg;
}

TEST(FlowSim, DeterministicAcrossRuns) {
  const FlowSimConfig cfg = small_flow_cfg(RoutePolicy::kReplicaAware);
  const FlowSimResult a = run_flowsim(cfg);
  const FlowSimResult b = run_flowsim(cfg);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.cross_rack_bytes, b.cross_rack_bytes);
  EXPECT_EQ(a.chosen_same_host, b.chosen_same_host);
  EXPECT_EQ(a.chosen_same_rack, b.chosen_same_rack);
  EXPECT_EQ(a.chosen_cross_rack, b.chosen_cross_rack);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
}

TEST(FlowSim, CompletesEveryReadAndAccountsBytes) {
  const FlowSimConfig cfg = small_flow_cfg(RoutePolicy::kStatic);
  const FlowSimResult r = run_flowsim(cfg);
  EXPECT_EQ(r.reads, cfg.reads);
  EXPECT_EQ(r.bytes, cfg.reads * cfg.block_bytes);
  EXPECT_EQ(r.chosen_same_host + r.chosen_same_rack + r.chosen_cross_rack, cfg.reads);
  EXPECT_GT(r.sim_seconds, 0.0);
  EXPECT_GT(r.aggregate_mb_s, 0.0);
  EXPECT_GT(r.epochs, 0u);
  // Every completion is a queued event: the engine dispatched at
  // least one event per read plus the epoch ticks.
  EXPECT_GT(r.events_dispatched, cfg.reads);
}

TEST(FlowSim, ReplicaAwareBeatsStaticAndRandom) {
  const FlowSimResult st = run_flowsim(small_flow_cfg(RoutePolicy::kStatic));
  const FlowSimResult rnd = run_flowsim(small_flow_cfg(RoutePolicy::kRandom));
  const FlowSimResult aw = run_flowsim(small_flow_cfg(RoutePolicy::kReplicaAware));
  // Static finds same-host replicas too — what it cannot do is prefer a
  // same-rack copy over the pipeline head, so aware wins on rack
  // locality, ships fewer bytes across the oversubscribed uplinks, and
  // finishes the same workload faster.
  EXPECT_GT(aw.chosen_same_rack, st.chosen_same_rack);
  EXPECT_LT(aw.chosen_cross_rack, st.chosen_cross_rack);
  EXPECT_LT(aw.cross_rack_bytes, st.cross_rack_bytes);
  EXPECT_LT(aw.cross_rack_bytes, rnd.cross_rack_bytes);
  EXPECT_GT(aw.aggregate_mb_s, st.aggregate_mb_s);
  EXPECT_GT(aw.aggregate_mb_s, rnd.aggregate_mb_s);
  EXPECT_GT(aw.feedback_reports, 0u);
}

TEST(FlowSim, EmptyTopologyIsRejected) {
  FlowSimConfig cfg;
  cfg.topo.racks = 0;
  EXPECT_THROW(run_flowsim(cfg), std::invalid_argument);
}

TEST(FlowSim, MaxSimTimeFailsLoudly) {
  FlowSimConfig cfg = small_flow_cfg(RoutePolicy::kStatic);
  cfg.max_sim_time = sim::us(1);
  EXPECT_THROW(run_flowsim(cfg), sim::SimError);
}

// -------------------------------------------- detailed-sim integration

// Sums all registry counter rows matching name + label subset (live and
// retired merge in the snapshot, so callers diff before/after).
std::uint64_t reg_counter(const std::string& name, const metrics::Labels& want) {
  std::uint64_t total = 0;
  for (const auto& row : metrics::registry().snapshot().rows) {
    if (row.name != name) continue;
    bool match = true;
    for (const auto& kv : want) {
      bool found = false;
      for (const auto& have : row.labels) {
        if (have == kv) {
          found = true;
          break;
        }
      }
      if (!found) {
        match = false;
        break;
      }
    }
    if (match) total += row.counter;
  }
  return total;
}

ClusterConfig racked_config() {
  ClusterConfig cfg = testutil::small_blocks();
  cfg.racks = hw::Lan::RackConfig{
      .hosts_per_rack = 2,
      .uplink = {.bw_gbps = 40.0, .propagation = sim::us(5)},
      .oversubscription = 4.0};
  return cfg;
}

// Four hosts in two racks; the client (host1, rack 0) can read either the
// same-rack replica on host2 or the cross-rack one on host3. The pipeline
// lists the cross-rack replica FIRST, so the static policy must go cross
// rack while the aware policy finds the same-rack copy.
struct RackedBed {
  Cluster cluster;
  explicit RackedBed(RoutePolicy policy) : cluster(racked_config()) {
    cluster.add_host("host1");
    cluster.add_host("host2");
    cluster.add_host("host3");
    cluster.add_host("host4");
    cluster.add_vm("host1", "client");
    cluster.create_namenode("client");
    cluster.add_datanode("host2", "dn-near");  // rack 0, same as client
    cluster.add_datanode("host3", "dn-far");   // rack 1
    cluster.add_client("client");
    cluster.preload_file("/data", 8 * 1024 * 1024, 91, {{"dn-far", "dn-near"}});
    cluster.enable_vread();
    cluster.enable_routing(RouteConfig{.policy = policy});
    cluster.drop_all_caches();
  }
  DfsIoResult read() {
    DfsIoResult r;
    cluster.sim().spawn(TestDfsIo::read(cluster, "client", "/data", 1 << 20, r));
    cluster.sim().run();
    return r;
  }
};

TEST(ClusterRouting, AwareClientStaysInRackAndCountsChoices) {
  const std::uint64_t same_before =
      reg_counter("vread_route_choices_total", {{"tier", "same-rack"}, {"vm", "client"}});
  const std::uint64_t cross_before = reg_counter("vread_route_choices_total",
                                                 {{"tier", "cross-rack"}, {"vm", "client"}});
  const std::uint64_t fb_before =
      reg_counter("vread_route_feedback_reports_total", {{"vm", "client"}});
  RackedBed bed(RoutePolicy::kReplicaAware);
  const DfsIoResult r = bed.read();
  EXPECT_EQ(r.bytes, 8u * 1024 * 1024);
  EXPECT_EQ(r.checksum, mem::Buffer::deterministic(91, 0, 8 * 1024 * 1024).checksum());
  // Every block choice stayed in rack 0 even though the pipeline led with
  // the cross-rack replica...
  const std::uint64_t same =
      reg_counter("vread_route_choices_total", {{"tier", "same-rack"}, {"vm", "client"}}) -
      same_before;
  const std::uint64_t cross = reg_counter("vread_route_choices_total",
                                          {{"tier", "cross-rack"}, {"vm", "client"}}) -
                              cross_before;
  EXPECT_GT(same, 0u);
  EXPECT_EQ(cross, 0u);
  EXPECT_EQ(bed.cluster.route_selector()->chosen(PathTier::kSameRack), same);
  // ...and completions piggybacked load feedback into the selector.
  EXPECT_GT(reg_counter("vread_route_feedback_reports_total", {{"vm", "client"}}) -
                fb_before,
            0u);
  EXPECT_EQ(bed.cluster.route_selector()->feedback_reports(),
            reg_counter("vread_route_feedback_reports_total", {{"vm", "client"}}) -
                fb_before);
}

TEST(ClusterRouting, StaticGoesCrossRackAndPaysTheUplink) {
  RackedBed aware(RoutePolicy::kReplicaAware);
  const DfsIoResult ra = aware.read();
  const std::uint64_t aware_crossed = aware.cluster.net().lan().cross_rack_bytes();

  RackedBed st(RoutePolicy::kStatic);
  const DfsIoResult rs = st.read();
  const std::uint64_t static_crossed = st.cluster.net().lan().cross_rack_bytes();

  EXPECT_EQ(ra.bytes, rs.bytes);
  // One replica choice per 1 MB chunk read, all of them cross-rack.
  EXPECT_EQ(st.cluster.route_selector()->chosen(PathTier::kCrossRack), 8u);
  EXPECT_EQ(st.cluster.route_selector()->chosen(PathTier::kSameRack), 0u);
  // The static run shipped the payload over the ToR uplinks; the aware
  // run kept it inside the rack.
  EXPECT_GT(static_crossed, aware_crossed);
  EXPECT_GE(static_crossed, 8u * 1024 * 1024);
  // Less wire, sooner done: in-rack reads beat the oversubscribed uplink.
  EXPECT_GT(ra.throughput_mbps, rs.throughput_mbps);
}

TEST(ClusterRouting, StaticSelectorIsBitIdenticalToNoSelector) {
  // kStatic reproduces the pre-topology replica choice exactly, so wiring
  // the selector in must not move a single timestamp.
  auto run = [](bool routed) {
    Cluster c(testutil::small_blocks());
    c.add_host("host1");
    c.add_host("host2");
    c.add_vm("host1", "client");
    c.create_namenode("client");
    c.add_datanode("host1", "datanode1");
    c.add_datanode("host2", "datanode2");
    c.add_client("client");
    c.preload_file("/data", 8 * 1024 * 1024, 17, {{"datanode2", "datanode1"}});
    c.enable_vread();
    if (routed) c.enable_routing(RouteConfig{.policy = RoutePolicy::kStatic});
    c.drop_all_caches();
    DfsIoResult r;
    c.sim().spawn(TestDfsIo::read(c, "client", "/data", 1 << 20, r));
    c.sim().run();
    return std::pair{r.checksum, c.sim().now()};
  };
  const auto [sum_plain, t_plain] = run(false);
  const auto [sum_routed, t_routed] = run(true);
  EXPECT_EQ(sum_plain, sum_routed);
  EXPECT_EQ(t_plain, t_routed);
}

// ------------------------------------------------- rack-aware placement

TEST(Placement, DefaultPlacementSpreadsReplicasAcrossRacks) {
  Cluster c(racked_config());
  c.add_host("host1");
  c.add_host("host2");
  c.add_host("host3");
  c.add_host("host4");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "dn1");  // rack 0
  c.add_datanode("host2", "dn2");  // rack 0
  c.add_datanode("host3", "dn3");  // rack 1
  c.add_datanode("host4", "dn4");  // rack 1
  hdfs::DfsClient& client = c.add_client("client");
  ASSERT_TRUE(c.namenode().rack_aware());
  hdfs::DfsClient::Placement place = client.default_placement(3);
  for (std::uint64_t block = 0; block < 8; ++block) {
    const std::vector<std::string> pipeline = place(block);
    ASSERT_EQ(pipeline.size(), 3u) << block;
    const std::uint32_t r1 = c.namenode().rack_of(pipeline[0]);
    const std::uint32_t r2 = c.namenode().rack_of(pipeline[1]);
    const std::uint32_t r3 = c.namenode().rack_of(pipeline[2]);
    // The HDFS rule: second replica off the first's rack, third in the
    // second's rack (two racks total, fault tolerance without flooding
    // the uplinks with a third rack's worth of pipeline traffic).
    EXPECT_NE(r1, r2) << block;
    EXPECT_EQ(r2, r3) << block;
    EXPECT_NE(pipeline[1], pipeline[2]) << block;
  }
}

// ---------------------------------------------------- config validation

TEST(DaemonConfigValidate, ErrorsNameTheFieldAndValue) {
  using core::DaemonConfig;
  auto detail_of = [](const DaemonConfig& dc) {
    Status st = dc.Validate();
    EXPECT_FALSE(st.ok());
    return st.detail();
  };
  DaemonConfig dc;
  EXPECT_TRUE(dc.Validate().ok());

  dc.workers = 0;
  EXPECT_NE(detail_of(dc).find("DaemonConfig.workers = 0"), std::string::npos);
  dc = DaemonConfig{};

  dc.shm_max_outstanding = 0;
  EXPECT_NE(detail_of(dc).find("DaemonConfig.shm_max_outstanding = 0"),
            std::string::npos);
  dc = DaemonConfig{};

  dc.cache_bytes = 100;  // smaller than one shm slot
  EXPECT_NE(detail_of(dc).find("DaemonConfig.cache_bytes = 100"), std::string::npos);
  dc = DaemonConfig{};

  dc.coalesce.enabled = true;
  dc.coalesce.batch_max = dc.shm_max_outstanding + 1;
  EXPECT_NE(detail_of(dc).find("DaemonConfig.coalesce.batch_max = " +
                               std::to_string(dc.coalesce.batch_max)),
            std::string::npos);
  dc = DaemonConfig{};

  dc.disk.enabled = true;
  dc.disk.channels = 0;
  EXPECT_NE(detail_of(dc).find("DaemonConfig.disk.channels = 0"), std::string::npos);
  dc = DaemonConfig{};

  dc.qos.weights["tenantX"] = 0.0;
  EXPECT_NE(detail_of(dc).find("DaemonConfig.qos.weights[tenantX]"),
            std::string::npos);
}

}  // namespace
}  // namespace vread::cluster
