// Reproduces the paper's §2.2 "Alternative Solutions" analysis as a
// measured comparison, plus the two vRead variants the paper argues
// against. Six deployments read the same data set:
//
//   vanilla        separated client/datanode VMs, stock HDFS
//   short-circuit  client and datanode packed into ONE VM with HDFS
//                  Short-Circuit Local Reads (HDFS-2246/347)
//   ivshmem        separated VMs, inter-VM shared-memory networking
//                  (removes one of the five copies)
//   vRead          separated VMs, the paper's system
//   vRead, TCP     vRead with user-space TCP between the daemons instead
//                  of RDMA (§3.2: "consumes more CPU cycles")
//   direct image   vRead reading the raw disk image instead of the
//                  loop-mounted file system (§6, rejected design)
//
// measured on (a) purely local data and (b) the realistic hybrid layout
// where half the blocks live on a second physical machine.
//
// Paper's argument, which the numbers below should reflect:
//  - short-circuit is great for same-VM data but does NOTHING for remote
//    blocks (and packing datanodes into client VMs is exactly what virtual
//    Hadoop deployments avoid);
//  - inter-VM shared memory only removes one copy, so it moves the needle
//    a little and only for co-located VMs;
//  - vRead helps local AND remote reads from unmodified deployments;
//  - TCP daemons move the hybrid data as fast as RDMA on an idle LAN but
//    burn many times the transport CPU (kRdma + kVreadNet on both hosts);
//  - direct image access loses the host page cache, so its local re-read
//    collapses to cold-read speed.
#include <cstdint>
#include <iostream>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "common.h"
#include "metrics/table.h"

namespace vread::bench {
namespace {

constexpr std::uint64_t kBytes = 64ULL * 1024 * 1024;

enum class Alt { kVanilla, kShortCircuit, kIvshmem, kVRead, kVReadTcp, kDirectRead };

struct Design {
  Alt alt;
  const char* name;  // table row
  const char* key;   // metric-name suffix
};

constexpr Design kDesigns[] = {
    {Alt::kVanilla, "vanilla", "vanilla"},
    {Alt::kShortCircuit, "short-circuit (same-VM)", "short_circuit"},
    {Alt::kIvshmem, "inter-VM shared memory", "ivshmem"},
    {Alt::kVRead, "vRead", "vread"},
    {Alt::kVReadTcp, "vRead, TCP daemons", "vread_tcp"},
    {Alt::kDirectRead, "vRead, direct image access", "direct_read"},
};

struct Numbers {
  double local_mbps;
  double local_reread_mbps;
  double hybrid_mbps;
  double hybrid_transport_cpu_ms;  // kRdma + kVreadNet cycles, both hosts
};

Numbers run(Alt alt) {
  ClusterConfig cfg;
  cfg.block_size = 16ULL << 20;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  // Short-circuit packs the datanode INTO the client VM; every other
  // deployment separates them (the recommended virtual-Hadoop layout).
  std::string local_dn;
  if (alt == Alt::kShortCircuit) {
    c.add_datanode_in_vm("client");
    local_dn = "client";
  } else {
    c.add_datanode("host1", "datanode1");
    local_dn = "datanode1";
  }
  c.add_datanode("host2", "datanode2");
  hdfs::DfsClient& client = c.add_client("client");

  c.preload_file("/local", kBytes, 91, {{local_dn}});
  c.preload_file("/hybrid", kBytes, 92, {{local_dn}, {"datanode2"}});

  switch (alt) {
    case Alt::kVanilla: break;
    case Alt::kShortCircuit: client.set_short_circuit(true); break;
    case Alt::kIvshmem: c.net().set_intervm_shm(true); break;
    case Alt::kVRead: c.enable_vread(); break;
    case Alt::kVReadTcp: c.enable_vread(core::VReadDaemon::Transport::kTcp); break;
    case Alt::kDirectRead: c.enable_vread(core::DaemonConfig{.direct_read = true}); break;
  }
  c.drop_all_caches();
  Numbers n{};
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, "client", "/local", 1 << 20, r));
  n.local_mbps = r.throughput_mbps;
  c.run_job(TestDfsIo::read(c, "client", "/local", 1 << 20, r));
  n.local_reread_mbps = r.throughput_mbps;
  const Cluster::Window w = c.begin_window();
  c.run_job(TestDfsIo::read(c, "client", "/hybrid", 1 << 20, r));
  n.hybrid_mbps = r.throughput_mbps;
  sim::Cycles transport = 0;
  for (const char* host : {"host1", "host2"}) {
    transport += c.window_cycles(w, host, metrics::CycleCategory::kRdma) +
                 c.window_cycles(w, host, metrics::CycleCategory::kVreadNet);
  }
  n.hybrid_transport_cpu_ms = static_cast<double>(transport) / (c.config().freq_ghz * 1e6);
  return n;
}

}  // namespace
}  // namespace vread::bench

int main(int argc, char** argv) {
  using namespace vread::bench;
  vread::metrics::print_banner("Alternatives (paper §2.2, §3.2, §6)",
                               "cold read throughput of the alternative designs, "
                               "local data vs hybrid (half-remote) data, 2.0 GHz");
  BenchReport report("alternatives");
  report.param("freq_ghz", 2.0).param("file_bytes", kBytes);
  Numbers base{};
  Numbers rdma{};
  vread::metrics::TablePrinter t({"design", "local cold (MBps)", "local re-read (MBps)",
                                  "hybrid cold (MBps)", "hybrid vs vanilla",
                                  "transport CPU (ms)"});
  for (const Design& d : kDesigns) {
    Numbers n = run(d.alt);
    if (d.alt == Alt::kVanilla) base = n;
    if (d.alt == Alt::kVRead) rdma = n;
    t.add_row({d.name, vread::metrics::Cell(n.local_mbps),
               vread::metrics::Cell(n.local_reread_mbps),
               vread::metrics::Cell(n.hybrid_mbps),
               vread::metrics::pct_cell(
                   vread::metrics::percent_gain(base.hybrid_mbps, n.hybrid_mbps)),
               vread::metrics::Cell(n.hybrid_transport_cpu_ms)});
    const std::string key(d.key);
    report.metric("local_mbps_" + key, n.local_mbps, "MBps", "higher")
        .metric("local_reread_mbps_" + key, n.local_reread_mbps, "MBps", "higher")
        .metric("hybrid_mbps_" + key, n.hybrid_mbps, "MBps", "higher")
        .metric("hybrid_transport_cpu_ms_" + key, n.hybrid_transport_cpu_ms, "ms", "lower");
    if (d.alt == Alt::kVReadTcp) {
      report.metric("tcp_rdma_transport_cpu_ratio",
                    n.hybrid_transport_cpu_ms / rdma.hybrid_transport_cpu_ms, "x", "higher");
    }
  }
  t.print();
  std::cout << "\nExpected shape (paper §2.2): short-circuit is unbeatable for CACHED\n"
               "same-VM data (2 copies, no network) but does nothing for the half-\n"
               "remote workload and requires packing datanodes into client VMs;\n"
               "inter-VM shared memory removes only one copy of five; vRead is the\n"
               "only design improving every column from the recommended separated-VM\n"
               "deployment. TCP daemons (§3.2) keep vRead's throughput but burn many\n"
               "times RDMA's transport CPU; direct image access (§6) loses the host\n"
               "page cache, so its local re-read falls back to cold-read speed.\n";
  report.maybe_write(argc, argv);
  return 0;
}
