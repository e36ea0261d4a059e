// Ablation: read performance under fault load (a Fig. 9-style delta).
//
// Three runs over the same hybrid dataset: vanilla HDFS, healthy vRead,
// and vRead under a deterministic fault schedule that exercises every
// degradation path at once (lost shm requests, corrupt responses, a
// daemon crash mid-workload, periodic stale dentry lookups, and a flaky
// RDMA link). The point of the graceful-degradation contract is visible
// in the numbers: the faulted run lands between vanilla and healthy vRead
// instead of failing, every byte still checks out, and the fault/
// degradation counter tables account for where the lost time went.
#include <cstdint>
#include <iostream>

#include "common.h"
#include "fault/fault.h"
#include "metrics/fault_stats.h"

namespace vread::bench {
namespace {

constexpr std::uint64_t kBytes = 96ULL * 1024 * 1024;
constexpr std::uint64_t kSeed = 4242;

// Every degradation path at once, deterministically (no probabilities, so
// the bench is reproducible run to run).
constexpr const char* kSchedule =
    "virt.shm.timeout:every=29;"
    "virt.shm.corrupt:every=31;"
    "fs.loop.stale_lookup:every=23;"
    "core.daemon.crash:after=60,max=1;"
    "core.daemon.peer_down:every=1,max=2;"
    "core.daemon.rdma_down:every=5";

struct Run {
  double mbps = 0;
  bool bytes_ok = false;
};

Run run(bool vread, bool faults, bool traced = false) {
  fault::registry().reset();
  if (faults) fault::registry().load_schedule(kSchedule);
  PaperSetup s = make_paper_setup(2.0, false, vread, Scenario::kHybrid, kBytes);
  Cluster& c = *s.cluster;
  c.client("client")->set_vread_fallback_cooldown(sim::ms(5));
  if (traced) trace::tracer().enable(c.sim());
  // The job's own elapsed time: the cluster clock after run_job stands at
  // the end of a polling slice, and a fault schedule keeps timers pending.
  DfsIoResult r = run_dfsio_read(c);
  Run out;
  out.mbps = r.throughput_mbps;
  out.bytes_ok = r.bytes == kBytes &&
                 r.checksum == mem::Buffer::deterministic(kSeed, 0, kBytes).checksum();

  if (faults && vread) {
    metrics::DegradationCounters d;
    d.daemon_restarts = c.daemon("host1")->restarts() + c.daemon("host2")->restarts();
    d.daemon_remote_retries =
        c.daemon("host1")->remote_retries() + c.daemon("host2")->remote_retries();
    d.daemon_rdma_failovers =
        c.daemon("host1")->rdma_failovers() + c.daemon("host2")->rdma_failovers();
    d.daemon_refresh_failures =
        c.daemon("host1")->refresh_failures() + c.daemon("host2")->refresh_failures();
    d.client_retries = c.libvread("client")->retries();
    d.client_fallback_reads = c.client("client")->vread_fallback_reads();
    d.client_cooldowns = c.client("client")->vread_cooldowns();
    d.client_reprobes = c.client("client")->vread_reprobes();
    std::cout << "\nfault points hit during the faulted vRead run:\n";
    metrics::fault_table().print();
    std::cout << "\ndegradation accounting:\n";
    metrics::degradation_table(d).print();
  }
  // The faulted trace shows the degradation machinery as events: retry
  // instants, rdma->tcp and vread->socket fallback markers, per read.
  if (traced) write_trace_artifacts(c, "ablation_faults.trace.json");
  fault::registry().reset();
  return out;
}

}  // namespace
}  // namespace vread::bench

int main(int argc, char** argv) {
  using namespace vread::bench;
  vread::metrics::print_banner(
      "Ablation: vRead under fault load",
      "hybrid scenario, 2.0 GHz; deterministic fault schedule vs healthy");
  BenchReport report("ablation_faults");
  report.param("freq_ghz", 2.0).param("file_bytes", kBytes);
  Run vanilla = run(/*vread=*/false, /*faults=*/false);
  Run healthy = run(/*vread=*/true, /*faults=*/false);
  Run faulted = run(/*vread=*/true, /*faults=*/true, trace_requested(argc, argv));
  std::cout << "\n";
  vread::metrics::TablePrinter t({"configuration", "throughput (MBps)", "bytes"});
  t.add_row({"vanilla HDFS", vread::metrics::Cell(vanilla.mbps),
             vanilla.bytes_ok ? "ok" : "CORRUPT"});
  t.add_row({"vRead, healthy", vread::metrics::Cell(healthy.mbps),
             healthy.bytes_ok ? "ok" : "CORRUPT"});
  t.add_row({"vRead, fault schedule", vread::metrics::Cell(faulted.mbps),
             faulted.bytes_ok ? "ok" : "CORRUPT"});
  t.print();
  report.metric("vanilla_mbps", vanilla.mbps, "MBps", "higher")
      .metric("healthy_mbps", healthy.mbps, "MBps", "higher")
      .metric("faulted_mbps", faulted.mbps, "MBps", "higher");
  std::cout << "\nExpected shape: the faulted run loses throughput to retries, socket\n"
               "fallbacks and cooldown windows but never correctness — degradation is\n"
               "graceful, and the counter tables above show exactly where it went.\n";
  report.maybe_write(argc, argv);
  return (vanilla.bytes_ok && healthy.bytes_ok && faulted.bytes_ok) ? 0 : 1;
}
