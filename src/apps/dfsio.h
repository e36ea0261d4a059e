// TestDFSIO-style workload (the paper's primary Hadoop benchmark).
//
// Sequential read of an HDFS file with a fixed request buffer (the paper
// uses 1 MB), charging MapReduce-framework plumbing per byte; and the
// matching streaming write test. Reports the two metrics Figs. 11-13 use:
// read/write throughput (MBps) and the benchmark's CPU running time.
#pragma once

#include <cstdint>
#include <string>

#include "apps/cluster.h"
#include "metrics/stats.h"

namespace vread::apps {

struct DfsIoResult {
  std::uint64_t bytes = 0;
  sim::SimTime elapsed = 0;
  double throughput_mbps = 0.0;
  double cpu_time_ms = 0.0;     // CPU consumed by the client VM
  std::uint64_t checksum = 0;   // mem::Hasher digest of everything read (integrity checks)
};

class TestDfsIo {
 public:
  // Reads `path` sequentially with `buffer_size` requests.
  static sim::Task read(Cluster& cluster, std::string client_vm,
                        std::string path, std::uint64_t buffer_size,
                        DfsIoResult& out);

  // Writes `bytes` of deterministic content as `path` through the pipeline
  // chosen by `placement`.
  static sim::Task write(Cluster& cluster, std::string client_vm,
                         std::string path, std::uint64_t bytes,
                         std::uint64_t seed, hdfs::DfsClient::Placement placement,
                         DfsIoResult& out);
};

}  // namespace vread::apps
