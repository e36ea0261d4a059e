// HBase PerformanceEvaluation-style operations over an HdfsTable (paper
// Table 2): scan, sequential read, random read.
//
// The region server runs in the client VM and fetches HFile bytes from
// HDFS — through vRead when it is enabled, exactly like the paper swapping
// the hadoop-core jar under hbase/lib. Per-get overhead (RPC, MVCC, block
// index seeks) is charged on top, which is why random point reads gain
// less from vRead than scans do.
#pragma once

#include <cstdint>
#include <string>

#include "apps/cluster.h"
#include "apps/table.h"
#include "mem/hasher.h"
#include "metrics/stats.h"
#include "sim/random.h"

namespace vread::apps {

struct HBaseResult {
  std::uint64_t rows = 0;
  sim::SimTime elapsed = 0;
  double mbps = 0.0;  // row payload bytes per second (paper Table 2 units)
  std::uint64_t checksum = 0;
};

class HBasePerfEval {
 public:
  // Full-table scan: streams each region file, per-row scan processing.
  static sim::Task scan(Cluster& cluster, std::string client_vm,
                        const HdfsTable& table, HBaseResult& out);

  // Reads `count` rows in key order via point gets.
  static sim::Task sequential_read(Cluster& cluster, std::string client_vm,
                                   const HdfsTable& table, std::uint64_t count,
                                   HBaseResult& out);

  // Reads `count` uniformly random rows via point gets.
  static sim::Task random_read(Cluster& cluster, std::string client_vm,
                               const HdfsTable& table, std::uint64_t count,
                               std::uint64_t rng_seed, HBaseResult& out);

 private:
  static sim::Task get_row(Cluster& cluster, hdfs::DfsClient& client,
                           const HdfsTable& table, std::uint64_t row,
                           mem::Hasher& hasher);
};

}  // namespace vread::apps
