// Shared scenario builders for the benchmark harnesses.
//
// Every bench binary regenerates one table/figure of the paper; the
// topology here is Fig. 10: Host1 runs the client VM (with the namenode)
// and datanode1; Host2 runs datanode2; in the "4 VMs" configurations each
// host is filled with 85 % lookbusy background VMs.
#pragma once

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "metrics/export.h"
#include "metrics/table.h"
#include "trace/aggregate.h"
#include "trace/chrome_export.h"
#include "trace/tracer.h"

namespace vread::bench {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;

enum class Scenario { kColocated, kRemote, kHybrid };

inline const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kColocated: return "co-located";
    case Scenario::kRemote: return "remote";
    case Scenario::kHybrid: return "hybrid";
  }
  return "?";
}

struct PaperSetup {
  std::unique_ptr<Cluster> cluster;
  std::string client = "client";
};

// Builds the Fig. 10 topology. `four_vms` adds the lookbusy background
// VMs; `vread` installs the vRead stack after `data_bytes` of /data have
// been preloaded according to `scenario`.
inline PaperSetup make_paper_setup(double freq_ghz, bool four_vms, bool vread,
                                   Scenario scenario, std::uint64_t data_bytes,
                                   std::uint64_t seed = 4242,
                                   core::VReadDaemon::Transport transport =
                                       core::VReadDaemon::Transport::kRdma,
                                   std::uint64_t block_size = 16ULL * 1024 * 1024) {
  PaperSetup s;
  ClusterConfig cfg;
  cfg.freq_ghz = freq_ghz;
  cfg.block_size = block_size;
  s.cluster = std::make_unique<Cluster>(cfg);
  Cluster& c = *s.cluster;
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_datanode("host2", "datanode2");
  c.add_client("client");
  if (four_vms) {
    // Fill each quad-core host to 4 VMs with 85 % lookbusy, as in §5.2.
    c.add_lookbusy("host1", "bg1a", 0.85);
    c.add_lookbusy("host1", "bg1b", 0.85);
    c.add_lookbusy("host2", "bg2a", 0.85);
    c.add_lookbusy("host2", "bg2b", 0.85);
    c.add_lookbusy("host2", "bg2c", 0.85);
  }
  if (data_bytes > 0) {
    switch (scenario) {
      case Scenario::kColocated:
        c.preload_file("/data", data_bytes, seed, {{"datanode1"}});
        break;
      case Scenario::kRemote:
        c.preload_file("/data", data_bytes, seed, {{"datanode2"}});
        break;
      case Scenario::kHybrid:
        c.preload_file("/data", data_bytes, seed, {{"datanode1"}, {"datanode2"}});
        break;
    }
  }
  if (vread) c.enable_vread(transport);
  c.drop_all_caches();
  return s;
}

// Runs one DFSIO read over /data and returns the result (bounded run:
// lookbusy VMs keep the event queue busy forever).
inline DfsIoResult run_dfsio_read(Cluster& c, std::uint64_t buffer = 1 << 20) {
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, "client", "/data", buffer, r));
  return r;
}

// ---- machine-readable bench telemetry ----
//
// Every bench binary accepts `--json [FILE]` and, when asked, writes a
// schema-versioned report: the scenario parameters, the headline metric
// values (tagged with the direction that counts as better and, where the
// paper states one, the expected value), and a full dump of the process
// metrics registry. tools/bench_compare.py diffs two such sets and the CI
// bench-telemetry job gates on regressions against bench/baseline/.
inline constexpr const char* kBenchJsonSchema = "vread-bench/1";

class BenchReport {
 public:
  // `bench` names the report and its default file (BENCH_<bench>.json).
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  BenchReport& param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, "\"" + metrics::json_escape(value) + "\"");
    return *this;
  }
  BenchReport& param(const std::string& key, double value) {
    params_.emplace_back(key, fmt_number(value));
    return *this;
  }
  BenchReport& param(const std::string& key, std::uint64_t value) {
    params_.emplace_back(key, std::to_string(value));
    return *this;
  }

  // `better` is "higher" or "lower" — the direction bench_compare.py
  // treats as an improvement. `paper_expected` (when the paper states a
  // number for this cell) rides along for context; it is never gated on.
  BenchReport& metric(std::string name, double value, std::string unit,
                      std::string better, double paper_expected = std::nan("")) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                              std::move(better), paper_expected});
    return *this;
  }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\n  \"schema\": \"" << kBenchJsonSchema << "\",\n  \"bench\": \""
      << metrics::json_escape(bench_) << "\",\n  \"params\": {";
    for (std::size_t i = 0; i < params_.size(); ++i) {
      f << (i ? ",\n" : "\n") << "    \"" << metrics::json_escape(params_[i].first)
        << "\": " << params_[i].second;
    }
    f << "\n  },\n  \"metrics\": [";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      f << (i ? ",\n" : "\n") << "    {\"name\": \"" << metrics::json_escape(m.name)
        << "\", \"value\": " << fmt_number(m.value) << ", \"unit\": \""
        << metrics::json_escape(m.unit) << "\", \"better\": \""
        << metrics::json_escape(m.better) << "\"";
      if (!std::isnan(m.paper_expected)) {
        f << ", \"paper_expected\": " << fmt_number(m.paper_expected);
      }
      f << '}';
    }
    f << "\n  ]\n}\n";
    return static_cast<bool>(f);
  }

  // Handles `--json [FILE]`: writes the report when the flag is present
  // (default file BENCH_<bench>.json) and says where it went. A binary
  // that regenerates several figures from one set of runs passes their
  // reports as `beside`: each is written under its own default name in
  // FILE's directory.
  void maybe_write(int argc, char** argv,
                   std::initializer_list<const BenchReport*> beside = {}) const {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) != "--json") continue;
      std::string path = default_file();
      if (i + 1 < argc && argv[i + 1][0] != '-') path = argv[i + 1];
      write_or_exit(path);
      const std::size_t slash = path.rfind('/');
      const std::string dir = slash == std::string::npos ? "" : path.substr(0, slash + 1);
      for (const BenchReport* r : beside) r->write_or_exit(dir + r->default_file());
      return;
    }
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string better;
    double paper_expected;
  };

  std::string default_file() const { return "BENCH_" + bench_ + ".json"; }

  void write_or_exit(const std::string& path) const {
    if (!write(path)) {
      std::cerr << "failed to write bench telemetry to " << path << "\n";
      std::exit(1);
    }
    std::cout << "bench telemetry written to " << path << "\n";
  }

  // Round-trippable but stable number formatting for JSON values.
  static std::string fmt_number(double v) {
    std::ostringstream ss;
    ss << std::setprecision(12) << v;
    return ss.str();
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> params_;  // key -> JSON value
  std::vector<Metric> metrics_;
};

// True when the bench was invoked with --trace: the bench then re-runs one
// bounded configuration with span tracing enabled and prints/writes the
// per-read decomposition plus a Perfetto-loadable trace file.
inline bool trace_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace") return true;
  }
  return false;
}

// Prints the aggregated per-read tables for the enabled tracer, writes the
// Chrome trace_event JSON to `file`, and disables tracing again.
inline void write_trace_artifacts(Cluster& c, const std::string& file,
                                  std::size_t max_rows = 8) {
  auto& tr = trace::tracer();
  const trace::RunSummary s = trace::aggregate(tr);
  std::cout << "\n-- traced run: per-read decomposition (" << s.reads.size()
            << " reads, " << tr.spans_recorded() << " spans) --\n";
  trace::print_read_table(std::cout, s, max_rows);
  trace::print_copy_sites(std::cout, s);
  std::ofstream f(file);
  trace::write_chrome_trace(f, tr, c.acct());
  std::cout << "trace written to " << file
            << " (load in Perfetto or chrome://tracing)\n";
  tr.disable();
}

}  // namespace vread::bench
