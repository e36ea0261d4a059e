#include "apps/hbase.h"

#include <utility>

namespace vread::apps {

sim::Task HBasePerfEval::scan(Cluster& cluster, std::string client_vm,
                              const HdfsTable& table, HBaseResult& out) {
  hdfs::DfsClient* client = cluster.client(client_vm);
  const hw::CostModel& cm = cluster.costs();
  const sim::SimTime start = cluster.sim().now();
  std::uint64_t rows = 0;
  mem::Hasher hasher;

  for (const std::string& path : table.files) {
    std::unique_ptr<hdfs::DfsInputStream> in;
    co_await client->open(path, in);
    for (;;) {
      mem::Buffer chunk;
      co_await in->read(256 * 1024, chunk);  // DFSInputStream internal buffering
      if (chunk.empty()) break;
      const std::uint64_t chunk_rows = chunk.size() / table.row_bytes;
      // Per-row KeyValue decode + filter evaluation.
      co_await client->vm().run_vcpu(cm.hbase_scan_row_cycles * chunk_rows,
                                     hw::CycleCategory::kClientApp);
      rows += chunk_rows;
      hasher.update(std::as_const(chunk).data(), chunk.size());
    }
    co_await in->close();
  }
  out.rows = rows;
  out.elapsed = cluster.sim().now() - start;
  out.mbps = metrics::throughput_mbps(rows * table.row_bytes, out.elapsed);
  out.checksum = hasher.digest();
}

sim::Task HBasePerfEval::get_row(Cluster& cluster, hdfs::DfsClient& client,
                                 const HdfsTable& table, std::uint64_t row,
                                 mem::Hasher& hasher) {
  const hw::CostModel& cm = cluster.costs();
  const HdfsTable::RowLoc loc = table.locate(row);
  // Region-server get: RPC, MVCC, block-index seek.
  co_await client.vm().run_vcpu(cm.hbase_get_overhead, hw::CycleCategory::kClientApp);
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client.open(table.files[loc.file_index], in);
  mem::Buffer rowbuf;
  co_await in->pread(loc.offset, table.row_bytes, rowbuf);
  co_await in->close();
  hasher.update(std::as_const(rowbuf).data(), rowbuf.size());
}

sim::Task HBasePerfEval::sequential_read(Cluster& cluster, std::string client_vm,
                                         const HdfsTable& table, std::uint64_t count,
                                         HBaseResult& out) {
  hdfs::DfsClient* client = cluster.client(client_vm);
  const sim::SimTime start = cluster.sim().now();
  mem::Hasher hasher;
  for (std::uint64_t i = 0; i < count; ++i) {
    co_await get_row(cluster, *client, table, i % table.rows, hasher);
  }
  out.rows = count;
  out.elapsed = cluster.sim().now() - start;
  out.mbps = metrics::throughput_mbps(count * table.row_bytes, out.elapsed);
  out.checksum = hasher.digest();
}

sim::Task HBasePerfEval::random_read(Cluster& cluster, std::string client_vm,
                                     const HdfsTable& table, std::uint64_t count,
                                     std::uint64_t rng_seed, HBaseResult& out) {
  hdfs::DfsClient* client = cluster.client(client_vm);
  sim::Rng rng(rng_seed);
  const sim::SimTime start = cluster.sim().now();
  mem::Hasher hasher;
  for (std::uint64_t i = 0; i < count; ++i) {
    co_await get_row(cluster, *client, table, rng.uniform(0, table.rows - 1), hasher);
  }
  out.rows = count;
  out.elapsed = cluster.sim().now() - start;
  out.mbps = metrics::throughput_mbps(count * table.row_bytes, out.elapsed);
  out.checksum = hasher.digest();
}

}  // namespace vread::apps
