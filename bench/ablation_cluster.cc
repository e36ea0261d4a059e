// Ablation: rack-scale topology and replica-aware read routing
// (docs/TOPOLOGY.md).
//
// Three views:
//   1. policy sweep on the flow-level cluster model — hosts x
//      oversubscription x {static, random, replica-aware}: aggregate
//      MB/s, cross-rack traffic and tier mix. The bench FAILS (exit 1)
//      unless replica-aware beats both baselines on throughput AND
//      cross-rack bytes at >= 64 hosts — that is the routing claim.
//   2. scale arm — 500 hosts / 1000 readers / 1.2M reads through the
//      event engine. The run must finish within a generous
//      wall-clock bound (exit 1 otherwise); wall time and event rate are
//      printed but deliberately kept OUT of the JSON report — the gate
//      compares simulator outputs, not machine speed.
//   3. detailed-sim arm — a small racked apps::Cluster where the pipeline
//      leads with a cross-rack replica: replica-aware routing must beat
//      the static choice end-to-end through the full vRead stack.
//
// The FlowSim sweep and the detailed arm are deterministic, so every JSON
// metric is gate-safe under tools/bench_compare.py's tight tolerance.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/flowsim.h"
#include "common.h"

namespace vread::bench {
namespace {

using cluster::FlowSimConfig;
using cluster::FlowSimResult;
using cluster::RoutePolicy;

struct SweepCell {
  std::uint32_t racks;
  std::uint32_t hosts_per_rack;
};

FlowSimResult run_cell(const SweepCell& cell, double oversub, RoutePolicy policy,
                       std::uint64_t reads) {
  FlowSimConfig cfg;
  cfg.topo.racks = cell.racks;
  cfg.topo.hosts_per_rack = cell.hosts_per_rack;
  cfg.topo.vms_per_host = 2;
  cfg.topo.oversubscription = oversub;
  cfg.route.policy = policy;
  cfg.blocks = 1024;
  cfg.block_bytes = 1 << 20;
  cfg.reads = reads;
  return cluster::run_flowsim(cfg);
}

double gb(std::uint64_t bytes) { return static_cast<double>(bytes) / (1 << 30); }

// Detailed-sim arm: four hosts in two racks, client in rack 0, replicas on
// both racks with the CROSS-rack copy first in the pipeline (the placement
// static routing blindly follows).
double detailed_read_mbps(RoutePolicy policy) {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  cfg.racks = vread::hw::Lan::RackConfig{
      .hosts_per_rack = 2,
      .uplink = {.bw_gbps = 40.0, .propagation = vread::sim::us(5)},
      .oversubscription = 4.0};
  Cluster c(cfg);
  c.add_host("host1");
  c.add_host("host2");
  c.add_host("host3");
  c.add_host("host4");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host2", "dn-near");  // rack 0, same rack as the client
  c.add_datanode("host3", "dn-far");   // rack 1
  c.add_client("client");
  c.preload_file("/data", 16ULL * 1024 * 1024, 77, {{"dn-far", "dn-near"}});
  c.enable_vread();
  c.enable_routing(cluster::RouteConfig{.policy = policy});
  c.drop_all_caches();
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, "client", "/data", 1 << 20, r));
  return r.throughput_mbps;
}

}  // namespace
}  // namespace vread::bench

int main(int argc, char** argv) {
  using namespace vread::bench;
  using vread::cluster::RoutePolicy;
  vread::metrics::print_banner(
      "Ablation: rack-scale replica-aware routing",
      "FlowSim policy sweep, 500-host scale arm, detailed-sim cross-check");
  BenchReport report("ablation_cluster");
  report.param("vms_per_host", std::uint64_t{2})
      .param("sweep_blocks", std::uint64_t{1024})
      .param("sweep_block_bytes", std::uint64_t{1 << 20})
      .param("sweep_reads", std::uint64_t{50000});

  bool ok = true;

  // ---- 1. policy sweep -------------------------------------------------
  const std::vector<SweepCell> cells = {{4, 4}, {8, 8}, {16, 16}};
  const std::vector<double> oversubs = {1.0, 4.0};
  std::cout << "policy sweep (50k reads, 1 MB blocks, 2 readers/host):\n";
  vread::metrics::TablePrinter t({"hosts", "oversub", "policy", "agg (MB/s)",
                                  "cross-rack (GB)", "same-host", "same-rack",
                                  "cross-rack"});
  for (const SweepCell& cell : cells) {
    const std::uint32_t hosts = cell.racks * cell.hosts_per_rack;
    for (double ov : oversubs) {
      FlowSimResult res[3];
      for (RoutePolicy p :
           {RoutePolicy::kStatic, RoutePolicy::kRandom, RoutePolicy::kReplicaAware}) {
        FlowSimResult r = run_cell(cell, ov, p, 50000);
        res[static_cast<int>(p)] = r;
        t.add_row({std::to_string(hosts), vread::metrics::fmt(ov, 0) + ":1",
                   vread::cluster::route_policy_name(p),
                   vread::metrics::Cell(r.aggregate_mb_s),
                   vread::metrics::Cell(gb(r.cross_rack_bytes)),
                   std::to_string(r.chosen_same_host),
                   std::to_string(r.chosen_same_rack),
                   std::to_string(r.chosen_cross_rack)});
      }
      const FlowSimResult& st = res[static_cast<int>(RoutePolicy::kStatic)];
      const FlowSimResult& rnd = res[static_cast<int>(RoutePolicy::kRandom)];
      const FlowSimResult& aw = res[static_cast<int>(RoutePolicy::kReplicaAware)];
      const std::string key =
          std::to_string(hosts) + "h_ov" + vread::metrics::fmt(ov, 0);
      report.metric("aware_mb_s_" + key, aw.aggregate_mb_s, "MB/s", "higher");
      report.metric("aware_vs_static_mbps_ratio_" + key,
                    aw.aggregate_mb_s / st.aggregate_mb_s, "ratio", "higher");
      report.metric("aware_vs_random_mbps_ratio_" + key,
                    aw.aggregate_mb_s / rnd.aggregate_mb_s, "ratio", "higher");
      report.metric("aware_cross_rack_gb_" + key, gb(aw.cross_rack_bytes), "GB",
                    "lower");
      // The routing claim: at rack scale, replica-aware wins on both
      // axes against both baselines.
      if (hosts >= 64) {
        if (aw.aggregate_mb_s <= st.aggregate_mb_s ||
            aw.aggregate_mb_s <= rnd.aggregate_mb_s ||
            aw.cross_rack_bytes >= st.cross_rack_bytes ||
            aw.cross_rack_bytes >= rnd.cross_rack_bytes) {
          std::cerr << "FAIL: replica-aware does not beat static+random at "
                    << hosts << " hosts, oversub " << ov << "\n";
          ok = false;
        }
      }
    }
  }
  t.print();
  std::cout << "\n";

  // ---- 2. scale arm ----------------------------------------------------
  {
    FlowSimConfig cfg;
    cfg.topo.racks = 25;
    cfg.topo.hosts_per_rack = 20;  // 500 hosts
    cfg.topo.vms_per_host = 2;     // 1000 closed-loop readers
    cfg.topo.oversubscription = 4.0;
    cfg.route.policy = RoutePolicy::kReplicaAware;
    cfg.blocks = 8192;
    cfg.block_bytes = 256 * 1024;
    cfg.reads = 1'200'000;
    const auto wall0 = std::chrono::steady_clock::now();
    const FlowSimResult r = vread::cluster::run_flowsim(cfg);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    const double events_per_s = static_cast<double>(r.events_dispatched) / wall_s;
    std::cout << "scale arm: 500 hosts, 1000 readers, " << cfg.reads
              << " reads:\n  sim " << vread::metrics::fmt(r.sim_seconds, 2)
              << " s, aggregate " << vread::metrics::fmt(r.aggregate_mb_s, 1)
              << " MB/s, " << r.events_dispatched << " engine events\n  wall "
              << vread::metrics::fmt(wall_s, 2) << " s ("
              << vread::metrics::fmt(events_per_s / 1e6, 2)
              << " M events/s) — wall time is machine-dependent and not in the "
                 "JSON report\n\n";
    // "A 500-host, million-read run completes in seconds": generous CI
    // headroom, but a quadratic regression in the engine or the flow
    // model blows straight through it.
    constexpr double kWallBound = 120.0;
    if (wall_s > kWallBound) {
      std::cerr << "FAIL: scale arm took " << wall_s << " s (bound " << kWallBound
                << " s)\n";
      ok = false;
    }
    if (r.reads != cfg.reads) {
      std::cerr << "FAIL: scale arm completed " << r.reads << " of " << cfg.reads
                << " reads\n";
      ok = false;
    }
    report.param("scale_hosts", std::uint64_t{500})
        .param("scale_reads", cfg.reads);
    report.metric("scale_aggregate_mb_s", r.aggregate_mb_s, "MB/s", "higher");
    report.metric("scale_cross_rack_gb", gb(r.cross_rack_bytes), "GB", "lower");
    report.metric("scale_engine_events", static_cast<double>(r.events_dispatched),
                  "count", "lower");
  }

  // ---- 3. detailed-sim arm --------------------------------------------
  {
    const double aware = detailed_read_mbps(RoutePolicy::kReplicaAware);
    const double st = detailed_read_mbps(RoutePolicy::kStatic);
    std::cout << "detailed sim (full vRead stack, 2 racks, cross-rack pipeline "
                 "head):\n  aware "
              << vread::metrics::fmt(aware, 1) << " MB/s vs static "
              << vread::metrics::fmt(st, 1) << " MB/s ("
              << vread::metrics::fmt(aware / st, 2) << "x)\n\n";
    if (aware <= st) {
      std::cerr << "FAIL: detailed-sim replica-aware (" << aware
                << " MB/s) does not beat static (" << st << " MB/s)\n";
      ok = false;
    }
    report.metric("detailed_aware_mbps", aware, "MBps", "higher");
    report.metric("detailed_aware_vs_static_ratio", aware / st, "ratio", "higher");
  }

  report.maybe_write(argc, argv);
  if (!ok) return 1;
  std::cout << "routing claims hold: replica-aware wins at >= 64 hosts\n";
  return 0;
}
