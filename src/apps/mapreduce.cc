#include "apps/mapreduce.h"

#include <vector>

#include "hdfs/wire.h"

namespace vread::apps {

namespace {

// Per-byte map-side user code cost (tokenize + emit).
constexpr double kMapCyclesPerByte = 1.0;
// Per-record reduce-side merge cost (one record per byte value).
constexpr sim::Cycles kReduceCyclesPerRecord = 4'000;

// One map task: read the split, charge map-side user code, emit the
// per-partition histograms into the shuffle buffers.
sim::Task map_task(Cluster& cluster, hdfs::DfsClient& client,
                   const MapReduceJob::Config& cfg, std::uint64_t split_offset,
                   std::uint64_t split_len,
                   std::vector<std::array<std::uint64_t, 256>>& shuffle) {
  const hw::CostModel& cm = cluster.costs();
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client.open(cfg.input, in);
  std::uint64_t pos = split_offset;
  const std::uint64_t end = split_offset + split_len;
  while (pos < end) {
    const std::uint64_t n = std::min<std::uint64_t>(1 << 20, end - pos);
    mem::Buffer chunk;
    co_await in->pread(pos, n, chunk);
    // Map-side user code: tokenize + emit.
    co_await client.vm().run_vcpu(cm.per_byte(chunk.size(), kMapCyclesPerByte),
                                  hw::CycleCategory::kClientApp);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const std::uint8_t key = chunk[i];
      ++shuffle[static_cast<std::size_t>(key) %
                static_cast<std::size_t>(cfg.reducers)][key];
    }
    pos += n;
  }
  co_await in->close();
}

// One reduce task: merge a partition's counts, charging per-record work.
sim::Task reduce_task(virt::Vm& vm, const std::array<std::uint64_t, 256>& partition,
                      std::array<std::uint64_t, 256>& result) {
  std::uint64_t records = 0;
  for (int k = 0; k < 256; ++k) {
    if (partition[static_cast<std::size_t>(k)] == 0) continue;
    result[static_cast<std::size_t>(k)] += partition[static_cast<std::size_t>(k)];
    ++records;
  }
  co_await vm.run_vcpu(kReduceCyclesPerRecord * records, hw::CycleCategory::kClientApp);
}

}  // namespace

sim::Task MapReduceJob::run(Cluster& cluster, std::string client_vm, Config config,
                            MapReduceResult& out) {
  hdfs::DfsClient* client = cluster.client(client_vm);
  if (client == nullptr) throw std::runtime_error("no such client: " + client_vm);
  Cluster::Window w = cluster.begin_window();

  // Splits: one map task per block, like Hadoop's FileInputFormat.
  co_await cluster.namenode().rpc_from(client->vm());
  const std::vector<hdfs::BlockInfo> blocks =
      cluster.namenode().all_blocks(config.input);

  std::vector<std::array<std::uint64_t, 256>> shuffle(
      static_cast<std::size_t>(config.reducers));
  for (const hdfs::BlockInfo& blk : blocks) {
    co_await map_task(cluster, *client, config, blk.offset_in_file, blk.size, shuffle);
    ++out.map_tasks;
    out.input_bytes += blk.size;
  }

  // Reduce phase over the shuffled partitions.
  for (const auto& partition : shuffle) {
    co_await reduce_task(client->vm(), partition, out.histogram);
  }

  // Serialize the result into HDFS (the job's output file).
  hdfs::wire::Writer ww;
  for (std::uint64_t v : out.histogram) ww.u64(v);
  co_await client->write_file(config.output, ww.take(), client->default_placement(1),
                              cluster.config().block_size);

  out.elapsed = cluster.window_elapsed(w);
  out.cpu_time_ms = cluster.window_cpu_ms(w, client_vm);
}

}  // namespace vread::apps
