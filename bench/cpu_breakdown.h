// Shared implementation for the Fig. 6/7/8 CPU-utilization breakdowns.
//
// Runs the paper's microbenchmark (read a file from HDFS with 1 MB
// requests) once with vRead and once vanilla, and prints stacked
// per-category CPU utilization — percent of one core over the run — for
// the client side and the datanode side, using the paper's bar labels.
#pragma once

#include <cctype>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "trace/aggregate.h"
#include "trace/tracer.h"

namespace vread::bench {

using metrics::CycleCategory;

inline const std::vector<std::pair<std::string, std::vector<CycleCategory>>>&
breakdown_rows() {
  static const std::vector<std::pair<std::string, std::vector<CycleCategory>>> rows = {
      {"client-application", {CycleCategory::kClientApp}},
      {"data copy(virtio-vqueue)", {CycleCategory::kVirtioCopy}},
      {"data copy(vRead-buffer)", {CycleCategory::kVreadBufferCopy}},
      {"vhost-net", {CycleCategory::kVhostNet}},
      {"loop device", {CycleCategory::kLoopDevice}},
      {"disk read", {CycleCategory::kDiskRead}},
      {"rdma", {CycleCategory::kRdma}},
      {"vRead-net", {CycleCategory::kVreadNet}},
      {"others",
       {CycleCategory::kGuestNetTx, CycleCategory::kGuestNetRx, CycleCategory::kHostNet,
        CycleCategory::kInterrupt, CycleCategory::kNamenode, CycleCategory::kDatanodeApp,
        CycleCategory::kDiskWrite, CycleCategory::kLookbusy, CycleCategory::kOther}},
  };
  return rows;
}

struct SideUtil {
  std::map<std::string, double> pct;  // row label -> % of one core
  double total = 0.0;
  double cpu_ms = 0.0;  // total CPU time consumed (work metric: same bytes read)
};

// Utilization of a set of accounting groups over a window, as % of one core.
inline SideUtil side_util(Cluster& c, const Cluster::Window& w,
                          const std::vector<std::string>& groups) {
  SideUtil u;
  const double capacity =
      c.config().freq_ghz * 1e9 * sim::to_seconds(c.window_elapsed(w));
  for (const auto& [label, cats] : breakdown_rows()) {
    double cycles = 0;
    for (const std::string& g : groups) {
      for (CycleCategory cat : cats) {
        cycles += static_cast<double>(c.window_cycles(w, g, cat));
      }
    }
    // Background lookbusy burn is not part of the read path.
    double pct = cycles / capacity * 100.0;
    if (label == "others") {
      double lb = 0;
      for (const std::string& g : groups) {
        lb += static_cast<double>(c.window_cycles(w, g, CycleCategory::kLookbusy));
      }
      pct -= lb / capacity * 100.0;
    }
    u.pct[label] = pct;
    u.total += pct;
    u.cpu_ms += cycles / (c.config().freq_ghz * 1e6);
    if (label == "others") {
      double lb = 0;
      for (const std::string& g : groups) {
        lb += static_cast<double>(c.window_cycles(w, g, CycleCategory::kLookbusy));
      }
      u.cpu_ms -= lb / (c.config().freq_ghz * 1e6);
    }
  }
  return u;
}

struct CpuFigureResult {
  SideUtil client;
  SideUtil datanode_side;
  double copies_per_byte = 0.0;  // measured by the span tracer
};

// One run of the Fig. 6/7/8 workload: 64 MB (scaled from 1 GB), 1 MB reads.
// The run is traced: it also prints the measured per-read span
// decomposition (copy count, sync wait, disk/transport time) and the
// copy-site table, Fig. 2's arrows and Fig. 3's delays per actual read.
inline CpuFigureResult run_cpu_breakdown(Scenario scenario, bool vread,
                                         core::VReadDaemon::Transport transport) {
  constexpr std::uint64_t kBytes = 64ULL * 1024 * 1024;
  PaperSetup s = make_paper_setup(2.0, /*four_vms=*/false, vread, scenario, kBytes,
                                  4242, transport);
  Cluster& c = *s.cluster;
  auto& tr = trace::tracer();
  tr.clear();  // several runs per process; don't mix spans
  tr.enable(c.sim());
  Cluster::Window w = c.begin_window();
  run_dfsio_read(c);
  tr.disable();
  CpuFigureResult r;
  if (scenario == Scenario::kColocated) {
    // Fig. 6: client VM vs. {vRead-daemon | vanilla datanode VM}.
    r.client = side_util(c, w, {"client"});
    r.datanode_side = side_util(c, w, vread ? std::vector<std::string>{"host1"}
                                            : std::vector<std::string>{"datanode1"});
  } else {
    // Fig. 7/8: the client side includes the client-host daemon (its rdma /
    // vRead-net receive work); the datanode side is the remote-host daemon
    // (vRead) or the datanode VM (vanilla).
    r.client = vread ? side_util(c, w, {"client", "host1"})
                     : side_util(c, w, {"client"});
    r.datanode_side = side_util(c, w, vread ? std::vector<std::string>{"host2"}
                                            : std::vector<std::string>{"datanode2"});
  }
  const trace::RunSummary sum = trace::aggregate(tr);
  std::cout << "\n-- measured per-read decomposition ("
            << (vread ? "vRead" : "vanilla") << ", " << to_string(scenario) << ", "
            << sum.reads.size() << " reads) --\n";
  trace::print_read_table(std::cout, sum, /*max_rows=*/4);
  trace::print_copy_sites(std::cout, sum);
  r.copies_per_byte = sum.total.copies();
  return r;
}

inline void print_cpu_panels(const std::string& what, const CpuFigureResult& vr,
                             const CpuFigureResult& vanilla) {
  auto print_panel = [](const std::string& title, const SideUtil& a, const SideUtil& b) {
    metrics::TablePrinter t({title, "vRead (%)", "vanilla (%)"});
    for (const auto& [label, cats] : breakdown_rows()) {
      (void)cats;
      double av = a.pct.count(label) ? a.pct.at(label) : 0.0;
      double bv = b.pct.count(label) ? b.pct.at(label) : 0.0;
      if (av < 0.05 && bv < 0.05) continue;
      t.add_row({label, av, bv});
    }
    t.add_row({"TOTAL", a.total, b.total});
    t.print();
  };
  std::cout << "\n-- " << what << ": client-side CPU utilization (% of one core) --\n";
  print_panel("category", vr.client, vanilla.client);
  std::cout << "-- " << what << ": datanode-side CPU utilization (% of one core) --\n";
  print_panel("category", vr.datanode_side, vanilla.datanode_side);
  std::cout << "client-side CPU saving (total cycles for the same bytes):   "
            << metrics::fmt_pct(metrics::percent_reduction(vanilla.client.cpu_ms,
                                                           vr.client.cpu_ms))
            << "\ndatanode-side CPU saving (total cycles for the same bytes): "
            << metrics::fmt_pct(metrics::percent_reduction(vanilla.datanode_side.cpu_ms,
                                                           vr.datanode_side.cpu_ms))
            << "\n";
}

// A breakdown row's label as a metric-name part: "data copy(vRead-buffer)"
// becomes "data_copy_vread_buffer".
inline std::string row_slug(const std::string& label) {
  std::string slug;
  for (char ch : label) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  if (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

// Telemetry for the Fig. 6/7/8 reports: total CPU time per side, the
// paper's savings percentages, and every bar of both panels
// (`<side>_pct_<row>_<mode>`, % of one core), all gated.
inline void report_cpu_metrics(BenchReport& report, const CpuFigureResult& vr,
                               const CpuFigureResult& vanilla,
                               double client_saving_expected,
                               double datanode_saving_expected) {
  const auto bars = [&report](const std::string& side, const SideUtil& u,
                              const std::string& mode) {
    for (const auto& [label, cats] : breakdown_rows()) {
      (void)cats;
      report.metric(side + "_pct_" + row_slug(label) + "_" + mode, u.pct.at(label), "%",
                    "lower");
    }
  };
  bars("client", vr.client, "vread");
  bars("client", vanilla.client, "vanilla");
  bars("datanode", vr.datanode_side, "vread");
  bars("datanode", vanilla.datanode_side, "vanilla");
  report.metric("client_cpu_ms_vread", vr.client.cpu_ms, "ms", "lower")
      .metric("client_cpu_ms_vanilla", vanilla.client.cpu_ms, "ms", "lower")
      .metric("datanode_cpu_ms_vread", vr.datanode_side.cpu_ms, "ms", "lower")
      .metric("datanode_cpu_ms_vanilla", vanilla.datanode_side.cpu_ms, "ms", "lower")
      .metric("client_cpu_saving_pct",
              metrics::percent_reduction(vanilla.client.cpu_ms, vr.client.cpu_ms), "%",
              "higher", client_saving_expected)
      .metric("datanode_cpu_saving_pct",
              metrics::percent_reduction(vanilla.datanode_side.cpu_ms,
                                         vr.datanode_side.cpu_ms),
              "%", "higher", datanode_saving_expected);
}

}  // namespace vread::bench
