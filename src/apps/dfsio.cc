#include "apps/dfsio.h"

#include <utility>

#include "mem/buffer.h"

namespace vread::apps {

sim::Task TestDfsIo::read(Cluster& cluster, std::string client_vm,
                          std::string path, std::uint64_t buffer_size,
                          DfsIoResult& out) {
  hdfs::DfsClient* client = cluster.client(client_vm);
  if (client == nullptr) throw std::runtime_error("no such client: " + client_vm);
  const hw::CostModel& cm = cluster.costs();
  Cluster::Window w = cluster.begin_window();

  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  std::uint64_t total = 0;
  mem::Hasher hasher;
  for (;;) {
    mem::Buffer buf;
    co_await in->read(buffer_size, buf);
    if (buf.empty()) break;
    // Map-task processing of the consumed bytes.
    co_await client->vm().run_vcpu(cm.per_byte(buf.size(), cm.dfsio_app_cycles_per_byte),
                                   hw::CycleCategory::kClientApp);
    total += buf.size();
    hasher.update(std::as_const(buf).data(), buf.size());
  }
  co_await in->close();

  out.bytes = total;
  out.elapsed = cluster.window_elapsed(w);
  out.throughput_mbps = metrics::throughput_mbps(total, out.elapsed);
  out.cpu_time_ms = cluster.window_cpu_ms(w, client_vm);
  out.checksum = hasher.digest();
}

sim::Task TestDfsIo::write(Cluster& cluster, std::string client_vm,
                           std::string path, std::uint64_t bytes,
                           std::uint64_t seed, hdfs::DfsClient::Placement placement,
                           DfsIoResult& out) {
  hdfs::DfsClient* client = cluster.client(client_vm);
  if (client == nullptr) throw std::runtime_error("no such client: " + client_vm);
  Cluster::Window w = cluster.begin_window();

  mem::Buffer data = mem::Buffer::deterministic(seed, 0, bytes);
  co_await client->write_file(path, data, std::move(placement),
                              cluster.config().block_size);

  out.bytes = bytes;
  out.elapsed = cluster.window_elapsed(w);
  out.throughput_mbps = metrics::throughput_mbps(bytes, out.elapsed);
  out.cpu_time_ms = cluster.window_cpu_ms(w, client_vm);
  out.checksum = data.checksum();
}

}  // namespace vread::apps
