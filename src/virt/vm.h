// Virtual machine: one vCPU thread, one I/O (vhost/iothread) worker, a
// guest page cache, and a SimFs-formatted virtual disk.
//
// The evaluation's VMs are all "1 vCPU, 2 GB RAM"; the single vCPU is a
// real constraint here — every guest-side charge serializes through the
// vCPU mutex, so a VM busy copying network buffers cannot simultaneously
// run application code, which is precisely the CPU-starvation effect the
// paper measures on low-frequency processors.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <string>

#include "fs/disk_image.h"
#include "fs/simfs.h"
#include "hw/cost_model.h"
#include "hw/cpu.h"
#include "hw/worker.h"
#include "mem/buffer.h"
#include "mem/page_cache.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "trace/tracer.h"

namespace vread::virt {

class Host;

class Vm {
 public:
  Vm(Host& host, std::string name);
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  const std::string& name() const { return name_; }
  Host& host() { return host_; }

  hw::ThreadId vcpu_tid() const { return vcpu_; }
  hw::WorkerThread& io_thread() { return *io_thread_; }

  // Executes `cycles` of guest work on the vCPU, serialized with all other
  // guest activity in this VM (a 1-vCPU guest runs one thing at a time).
  sim::Task run_vcpu(sim::Cycles cycles, hw::CycleCategory cat, trace::Ctx ctx = {});

  // Guest filesystem on the virtual disk (the authoritative read-write view).
  fs::SimFs& fs() { return *fs_; }
  const fs::DiskImagePtr& disk_image() const { return image_; }

  // --- timed guest file I/O (virtio-blk path) ---
  // Reads [offset, offset+len) of `inode` with full timing: guest block
  // layer on the vCPU, virtio-blk + block-layer work on the I/O thread,
  // device time for cache-missed bytes, guest-cache fill. When
  // `copy_to_app` is set the final kernel-buffer -> app-buffer copy is
  // charged to `app_cat` (a datanode using sendfile skips it).
  sim::Task fs_read(std::uint32_t inode, std::uint64_t offset, std::uint64_t len,
                    mem::Buffer& out, hw::CycleCategory app_cat, bool copy_to_app = true,
                    trace::Ctx ctx = {});

  // Appends `data` to `inode` with write-path timing (app copy, virtio-blk,
  // device write, guest-cache fill).
  sim::Task fs_append(std::uint32_t inode, const mem::Buffer& data,
                      hw::CycleCategory app_cat);

  // Drops the guest buffer cache ("echo 3 > /proc/sys/vm/drop_caches" in
  // the paper's cold-read experiments).
  void drop_caches() {
    guest_cache_.clear();
    ra_.clear();
  }

 private:
  // Guest-kernel readahead window (Linux default 128 KB): sequential reads
  // overlap part of the device time with guest processing, but far less
  // than the host's aggressive mounted-fs readahead that vRead enjoys.
  static constexpr std::uint64_t kGuestReadahead = 256 * 1024;

  struct RaState {
    explicit RaState(sim::Simulation& sim) : event(sim) {}
    std::uint64_t seq_pos = 0;
    std::uint64_t done = 0;          // [0, done) cache-resident
    std::uint64_t inflight_end = 0;  // async window being fetched
    sim::Event event;
  };

  // Ensures [offset, offset+n) of `inode` is resident in the guest cache,
  // charging virtio-blk/block-layer/device costs as needed.
  sim::Task ensure_guest_resident(std::uint32_t inode, std::uint64_t offset,
                                  std::uint64_t n, trace::Ctx ctx);
  sim::Task guest_readahead_task(std::shared_ptr<RaState> ra, std::uint32_t inode,
                                 std::uint64_t begin, std::uint64_t end, trace::Ctx ctx);
  Host& host_;
  std::string name_;
  hw::ThreadId vcpu_;
  std::unique_ptr<hw::WorkerThread> io_thread_;
  sim::Semaphore vcpu_mutex_;
  fs::DiskImagePtr image_;
  std::unique_ptr<fs::SimFs> fs_;
  mem::PageCache guest_cache_;
  std::unordered_map<std::uint32_t, std::shared_ptr<RaState>> ra_;
  // Trace tracks: waits for the single vCPU, and readahead's virtio-blk
  // round trips (neither runs on one thread).
  trace::TrackName runq_track_;
  trace::TrackName virtio_track_;
};

}  // namespace vread::virt
