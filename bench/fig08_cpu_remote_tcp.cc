// Regenerates Fig. 8: CPU utilization breakdown for a remote read with the
// user-space TCP daemon transport (the RDMA fallback).
//
// Paper shape: total CPU still slightly below vanilla (the datanode VM is
// bypassed), but the user-space "vRead-net" component is *less* efficient
// than kernel vhost-net — the reason the paper prefers RoCE.
#include "cpu_breakdown.h"

int main(int argc, char** argv) {
  using namespace vread::bench;
  vread::metrics::print_banner("Figure 8",
                               "CPU utilization for remote read with TCP daemons "
                               "(2.0 GHz, 1 MB requests, 64 MB scaled from 1 GB)");
  BenchReport report("fig08_cpu_remote_tcp");
  report.param("freq_ghz", 2.0)
      .param("scenario", std::string("remote"))
      .param("transport", std::string("tcp"));
  CpuFigureResult vr =
      run_cpu_breakdown(Scenario::kRemote, true, vread::core::VReadDaemon::Transport::kTcp);
  CpuFigureResult vanilla =
      run_cpu_breakdown(Scenario::kRemote, false, vread::core::VReadDaemon::Transport::kTcp);
  print_cpu_panels("remote read (TCP daemons)", vr, vanilla);
  report_cpu_metrics(report, vr, vanilla, /*client_saving_expected=*/10.0,
                     /*datanode_saving_expected=*/30.0);
  report.metric("copies_per_byte_vread", vr.copies_per_byte, "copies/B", "lower");
  std::cout << "\nPaper reference: vRead-net costs more CPU per byte than vhost-net\n"
               "(user/kernel crossings), yet total utilization stays below vanilla\n"
               "because the datanode VM's whole stack is bypassed.\n";
  report.maybe_write(argc, argv);
  return 0;
}
