// Tour of the raw libvread API (paper Table 1): vRead_open / vRead_read /
// vRead_seek / vRead_close, used directly the way the re-implemented
// DFSInputStream uses them — descriptor hash, sequential reads, seeks, and
// the fallback signal when no descriptor can be obtained.
//
//   $ ./examples/libvread_api_tour
#include <cstdint>
#include <iostream>

#include "apps/cluster.h"
#include "core/libvread.h"
#include "mem/buffer.h"

using namespace vread;

namespace {

sim::Task tour(core::LibVread& lib, std::string block, std::uint64_t block_bytes,
               int* failures) {
  auto check = [&](bool ok, const char* what) {
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
    if (!ok) ++*failures;
  };

  // vRead_open: obtain a descriptor for (block, datanode).
  std::uint64_t vfd = 0;
  Status st;
  co_await lib.vread_open(sim::Name(block), "datanode1", vfd, st);
  check(st.ok() && vfd != 0, "vRead_open returns a descriptor for a visible block");

  // vRead_read: sequential reads advance the descriptor's offset.
  mem::Buffer first, second;
  co_await lib.vread_read(vfd, 4096, first, st);
  check(st.ok() && first.size() == 4096, "vRead_read returns the requested bytes");
  co_await lib.vread_read(vfd, 4096, second, st);
  check(second == mem::Buffer::deterministic(21, 4096, 4096),
        "second read continues at the advanced offset");

  // vRead_seek: reposition, then read across to verify.
  co_await lib.vread_seek(vfd, block_bytes - 1000, st);
  check(st.ok(), "vRead_seek repositions");
  mem::Buffer tail;
  co_await lib.vread_read(vfd, 5000, tail, st);
  check(st.ok() && tail.size() == 1000, "reads clamp at end of block");
  check(tail == mem::Buffer::deterministic(21, block_bytes - 1000, 1000),
        "tail bytes are correct");

  // vRead_close: descriptor is gone afterwards.
  co_await lib.vread_close(vfd, st);
  check(st.ok(), "vRead_close succeeds");
  co_await lib.vread_read(vfd, 10, tail, st);
  check(st.code() == StatusCode::kBadFd && st.is_stale(),
        "reading a closed descriptor reports BAD_FD (stale -> re-open)");

  // Unknown block: no descriptor — HDFS would fall back to its socket path.
  std::uint64_t bad = 1;
  co_await lib.vread_open("blk_does_not_exist", "datanode1", bad, st);
  check(!st.ok() && bad == 0 && !st.is_retryable(),
        "vRead_open fails for an invisible block (fallback signal)");
}

}  // namespace

int main() {
  std::cout << "=== libvread API tour (paper Table 1) ===\n";
  apps::ClusterConfig cfg;
  cfg.block_size = 8ULL << 20;
  apps::Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_client("client");
  c.preload_file("/file", cfg.block_size, /*seed=*/21, {{"datanode1"}});
  c.enable_vread();

  const std::string block = c.namenode().all_blocks("/file").front().name;
  int failures = 0;
  c.run_job(tour(*c.libvread("client"), block, cfg.block_size, &failures));
  std::cout << (failures == 0 ? "all API checks passed\n" : "API checks FAILED\n");
  return failures == 0 ? 0 : 1;
}
