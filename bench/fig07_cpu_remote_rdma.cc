// Regenerates Fig. 7: CPU utilization breakdown for a remote read with the
// RDMA (RoCE) daemon transport.
//
// Paper shape: vRead beats vanilla on both sides; the rdma bars are far
// smaller than vanilla's vhost-net bars, and the datanode-side rdma cost
// exceeds the client side's (active-push model). ~45 % client / >50 %
// datanode CPU savings.
#include "cpu_breakdown.h"

int main(int argc, char** argv) {
  using namespace vread::bench;
  vread::metrics::print_banner("Figure 7",
                               "CPU utilization for remote read with RDMA (2.0 GHz, "
                               "1 MB requests, 64 MB scaled from 1 GB)");
  BenchReport report("fig07_cpu_remote_rdma");
  report.param("freq_ghz", 2.0)
      .param("scenario", std::string("remote"))
      .param("transport", std::string("rdma"));
  CpuFigureResult vr =
      run_cpu_breakdown(Scenario::kRemote, true, vread::core::VReadDaemon::Transport::kRdma);
  CpuFigureResult vanilla =
      run_cpu_breakdown(Scenario::kRemote, false, vread::core::VReadDaemon::Transport::kRdma);
  print_cpu_panels("remote read (RDMA)", vr, vanilla);
  report_cpu_metrics(report, vr, vanilla, /*client_saving_expected=*/45.0,
                     /*datanode_saving_expected=*/50.0);
  report.metric("copies_per_byte_vread", vr.copies_per_byte, "copies/B", "lower");
  std::cout << "\nPaper reference: ~45% client-side and >50% datanode-side CPU savings;\n"
               "rdma << vhost-net, and the datanode side pays more rdma than the client\n"
               "(it actively pushes the payload).\n";
  report.maybe_write(argc, argv);
  return 0;
}
