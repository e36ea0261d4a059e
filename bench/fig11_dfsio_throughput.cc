// Regenerates Fig. 11 and Fig. 12 from one TestDFSIO sweep: read
// throughput (MBps) and the client VM's CPU running time (ms), six panels
// each: {co-located, remote, hybrid} x {read, re-read}, CPU frequency in
// {1.6, 2.0, 3.2} GHz, for vanilla/vRead x 2 VMs/4 VMs. The paper reads
// both figures off the same runs, and so does this bench: each of the 36
// cells is simulated once and feeds both reports (`--json FILE` writes
// BENCH_fig12_dfsio_cputime.json beside FILE).
//
// Paper shapes to reproduce: vRead wins everywhere; the margin grows at
// lower frequency (~+20 % at 3.2 GHz -> ~+41 % at 1.6 GHz co-located
// read), grows with background VMs (up to ~+65 % at 4 VMs), and is
// largest on re-reads (up to ~+150 %). vRead consumes fewer CPU
// milliseconds than vanilla in every cell *while also finishing faster*:
// the throughput gains are not bought with extra cycles.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"

namespace vread::bench {
namespace {

constexpr std::uint64_t kBytes = 128ULL * 1024 * 1024;  // scaled from 5 GB

// One TestDFSIO cell: a cold read on a fresh Fig. 10 bed, then a re-read
// on warm caches.
struct Cell {
  DfsIoResult read;
  DfsIoResult reread;
};

Cell run_cell(double freq, bool four_vms, bool vread, Scenario scenario) {
  PaperSetup s = make_paper_setup(freq, four_vms, vread, scenario, kBytes);
  Cell cell;
  cell.read = run_dfsio_read(*s.cluster);
  cell.reread = run_dfsio_read(*s.cluster);
  return cell;
}

// The four cells of one panel row.
struct Row {
  std::string freq;  // "1.6GHz"
  Cell v2, r2, v4, r4;
};

std::vector<Row> run_panel(Scenario scenario) {
  std::vector<Row> rows;
  for (double freq : {1.6, 2.0, 3.2}) {
    Row r;
    r.freq = metrics::fmt(freq, 1) + "GHz";
    r.v2 = run_cell(freq, false, false, scenario);
    r.r2 = run_cell(freq, false, true, scenario);
    r.v4 = run_cell(freq, true, false, scenario);
    r.r4 = run_cell(freq, true, true, scenario);
    rows.push_back(std::move(r));
  }
  return rows;
}

// One panel table: `field` of the read (or re-read) per row, vanilla vs
// vRead at 2 and 4 VMs, with `delta` (gain or saving) beside each pair.
void print_table(const std::string& title, const std::vector<Row>& rows,
                 DfsIoResult Cell::*phase, double DfsIoResult::*field,
                 const std::string& delta_name, double (*delta)(double, double),
                 int precision) {
  metrics::TablePrinter t({"CPU freq", "vanilla-2vms", "vRead-2vms", delta_name,
                           "vanilla-4vms", "vRead-4vms", delta_name});
  for (const Row& r : rows) {
    const double v2 = (r.v2.*phase).*field, r2 = (r.r2.*phase).*field;
    const double v4 = (r.v4.*phase).*field, r4 = (r.r4.*phase).*field;
    t.add_row({r.freq, metrics::Cell(v2, precision), metrics::Cell(r2, precision),
               metrics::pct_cell(delta(v2, r2)), metrics::Cell(v4, precision),
               metrics::Cell(r4, precision), metrics::pct_cell(delta(v4, r4))});
  }
  std::cout << title;
  t.print();
}

void report_throughput(Scenario scenario, const std::vector<Row>& rows,
                       BenchReport& report) {
  const std::string s = to_string(scenario);
  print_table("\n-- DFSIO throughput (MBps), " + s + " READ --\n", rows, &Cell::read,
              &DfsIoResult::throughput_mbps, "gain", metrics::percent_gain, 1);
  print_table("-- DFSIO throughput (MBps), " + s + " RE-READ --\n", rows, &Cell::reread,
              &DfsIoResult::throughput_mbps, "gain", metrics::percent_gain, 1);
  for (const Row& r : rows) {
    const std::string key = s + "_" + r.freq;
    const auto gain = [](const DfsIoResult& v, const DfsIoResult& vr) {
      return metrics::percent_gain(v.throughput_mbps, vr.throughput_mbps);
    };
    report
        .metric("vread_mbps_read_2vms_" + key, r.r2.read.throughput_mbps, "MBps", "higher")
        .metric("vread_mbps_read_4vms_" + key, r.r4.read.throughput_mbps, "MBps", "higher")
        .metric("vread_mbps_reread_2vms_" + key, r.r2.reread.throughput_mbps, "MBps",
                "higher")
        .metric("gain_read_2vms_" + key, gain(r.v2.read, r.r2.read), "%", "higher")
        .metric("gain_read_4vms_" + key, gain(r.v4.read, r.r4.read), "%", "higher")
        .metric("gain_reread_2vms_" + key, gain(r.v2.reread, r.r2.reread), "%", "higher");
  }
}

void report_cputime(Scenario scenario, const std::vector<Row>& rows,
                    BenchReport& report) {
  const std::string s = to_string(scenario);
  print_table("\n-- DFSIO client CPU time (ms), " + s + " READ --\n", rows, &Cell::read,
              &DfsIoResult::cpu_time_ms, "saving", metrics::percent_reduction, 0);
  print_table("-- DFSIO client CPU time (ms), " + s + " RE-READ --\n", rows,
              &Cell::reread, &DfsIoResult::cpu_time_ms, "saving",
              metrics::percent_reduction, 0);
  for (const Row& r : rows) {
    const std::string key = s + "_" + r.freq;
    const auto saving = [](const DfsIoResult& v, const DfsIoResult& vr) {
      return metrics::percent_reduction(v.cpu_time_ms, vr.cpu_time_ms);
    };
    report.metric("vread_cpu_ms_read_2vms_" + key, r.r2.read.cpu_time_ms, "ms", "lower")
        .metric("vread_cpu_ms_read_4vms_" + key, r.r4.read.cpu_time_ms, "ms", "lower")
        .metric("saving_read_2vms_" + key, saving(r.v2.read, r.r2.read), "%", "higher")
        .metric("saving_read_4vms_" + key, saving(r.v4.read, r.r4.read), "%", "higher");
  }
}

// Figure-style bars for the 2.0 GHz row (the paper's middle cluster).
void print_bars(Scenario scenario, const Row& r) {
  metrics::BarChart chart(std::string("  ") + to_string(scenario) +
                              " @2.0GHz (read | re-read)",
                          "MBps");
  chart.add("vanilla-2vms read", r.v2.read.throughput_mbps);
  chart.add("vRead-2vms   read", r.r2.read.throughput_mbps);
  chart.add("vanilla-4vms read", r.v4.read.throughput_mbps);
  chart.add("vRead-4vms   read", r.r4.read.throughput_mbps);
  chart.add("vanilla-2vms re-read", r.v2.reread.throughput_mbps);
  chart.add("vRead-2vms   re-read", r.r2.reread.throughput_mbps);
  chart.add("vanilla-4vms re-read", r.v4.reread.throughput_mbps);
  chart.add("vRead-4vms   re-read", r.r4.reread.throughput_mbps);
  chart.print();
}

}  // namespace
}  // namespace vread::bench

int main(int argc, char** argv) {
  using namespace vread::bench;
  const Scenario scenarios[] = {Scenario::kColocated, Scenario::kRemote, Scenario::kHybrid};
  std::vector<std::vector<Row>> panels;
  for (Scenario s : scenarios) panels.push_back(run_panel(s));

  vread::metrics::print_banner("Figure 11", "HDFS read throughput (TestDFSIO), 128 MB scaled "
                                     "from the paper's 5 GB, 1 MB request buffer");
  BenchReport throughput("fig11_dfsio_throughput");
  throughput.param("file_bytes", kBytes).param("buffer_bytes", std::uint64_t{1} << 20);
  for (std::size_t i = 0; i < panels.size(); ++i) {
    report_throughput(scenarios[i], panels[i], throughput);
  }
  std::cout << "\n-- figure-style bars --\n";
  print_bars(Scenario::kColocated, panels[0][1]);  // the 2.0 GHz co-located row
  std::cout << "\nPaper reference shapes: vRead > vanilla in every cell; gains grow as "
               "frequency drops\n(+20% @3.2GHz -> +41% @1.6GHz co-located read), grow "
               "with 4 VMs (up to +65%),\nand are largest for re-read (up to +150%).\n";

  vread::metrics::print_banner("Figure 12",
                               "TestDFSIO client-VM CPU running time, 128 MB scaled "
                               "from the paper's 5 GB (same runs as Figure 11)");
  BenchReport cputime("fig12_dfsio_cputime");
  cputime.param("file_bytes", kBytes);
  for (std::size_t i = 0; i < panels.size(); ++i) {
    report_cputime(scenarios[i], panels[i], cputime);
  }
  std::cout << "\nPaper reference shape: vRead spends fewer CPU ms in every cell while\n"
               "also achieving the higher throughput of Fig. 11.\n";

  if (trace_requested(argc, argv)) {
    // One bounded traced pass: the 2.0 GHz co-located vRead cold read.
    PaperSetup s = make_paper_setup(2.0, false, true, Scenario::kColocated, kBytes);
    vread::trace::tracer().enable(s.cluster->sim());
    run_dfsio_read(*s.cluster);
    write_trace_artifacts(*s.cluster, "fig11_dfsio.trace.json");
  }
  throughput.maybe_write(argc, argv, {&cputime});
  return 0;
}
