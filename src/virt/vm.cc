#include "virt/vm.h"

#include "virt/host.h"

namespace vread::virt {

using hw::CycleCategory;

namespace {
constexpr std::uint64_t kDiskBytes = 8ULL * 1024 * 1024 * 1024;  // virtual disk size
// Guest kernel buffer cache; roughly half of the paper's 2 GB guest RAM,
// like a real guest.
constexpr std::uint64_t kGuestCacheBytes = 1ULL * 1024 * 1024 * 1024;
}  // namespace

Vm::Vm(Host& host, std::string name)
    : host_(host),
      name_(std::move(name)),
      vcpu_(host.cpu().add_thread(name_ + "-vcpu", name_)),
      io_thread_(std::make_unique<hw::WorkerThread>(host.sim(), host.cpu(),
                                                    name_ + "-io", name_)),
      vcpu_mutex_(host.sim(), 1),
      image_(std::make_shared<fs::DiskImage>(kDiskBytes)),
      fs_(std::make_unique<fs::SimFs>(fs::SimFs::format(image_))),
      guest_cache_(kGuestCacheBytes),
      runq_track_{name_ + " vcpu-runq", name_},
      virtio_track_{name_ + " virtio-blk", name_} {}

sim::Task Vm::run_vcpu(sim::Cycles cycles, CycleCategory cat, trace::Ctx ctx) {
  {
    // Waiting for the single vCPU (another guest thread holds it) is VM
    // synchronization delay; it goes on a per-VM track because waits can
    // straddle the holder's bursts on the vCPU thread itself.
    const trace::Scope wait = trace::Scope::wait(ctx, "vcpu-mutex", runq_track_);
    co_await vcpu_mutex_.acquire();
  }
  co_await host_.cpu().consume(vcpu_, cycles, cat, ctx);
  vcpu_mutex_.release();
}

sim::Task Vm::guest_readahead_task(std::shared_ptr<RaState> ra, std::uint32_t inode,
                                   std::uint64_t begin, std::uint64_t end, trace::Ctx ctx) {
  // Async readahead issued by the guest block layer: device time plus the
  // per-command virtio-blk round trips. Spans attribute to the read that
  // kicked the window, even if a later read consumes the bytes.
  const std::uint64_t missing = guest_cache_.miss_bytes(inode, begin, end - begin);
  if (missing > 0) {
    const hw::CostModel& cm = host_.costs();
    co_await host_.disk().read(missing, ctx);
    const std::uint64_t cmds =
        (missing + cm.virtio_blk_cmd_bytes - 1) / cm.virtio_blk_cmd_bytes;
    const trace::Scope copy = trace::Scope::copy(ctx, "copy virtio-blk", virtio_track_, missing);
    co_await host_.sim().delay(cm.virtio_blk_cmd_latency * static_cast<sim::SimTime>(cmds));
  }
  guest_cache_.fill(inode, begin, end - begin);
  ra->done = std::max(ra->done, end);
  ra->event.set();
}

sim::Task Vm::ensure_guest_resident(std::uint32_t inode, std::uint64_t offset,
                                    std::uint64_t n, trace::Ctx ctx) {
  const hw::CostModel& cm = host_.costs();
  auto [it, inserted] = ra_.try_emplace(inode);
  if (inserted) it->second = std::make_shared<RaState>(host_.sim());
  RaState& ra = *it->second;
  const std::uint64_t end = offset + n;
  const bool sequential = offset == ra.seq_pos || end <= ra.done;
  ra.seq_pos = end;

  // Sequential streams serialize behind the in-flight readahead window
  // (it owns the device and usually covers this request).
  if (sequential) {
    while (ra.inflight_end > ra.done) {
      ra.event.reset();
      co_await ra.event.wait();
    }
  }
  std::uint64_t missing = guest_cache_.miss_bytes(inode, offset, n);
  if (missing > 0) {
    // Cache miss: the request goes through the virtio-blk vqueue to the
    // VM's I/O thread, which does the block-layer work and waits for the
    // device; the DMA'd data is then copied into guest memory (the first
    // of the paper's five copies).
    co_await run_vcpu(cm.virtio_per_segment * cm.segments(missing),
                      CycleCategory::kVirtioCopy, ctx);
    sim::Event done(host_.sim());
    io_thread_->submit([this, missing, &cm, &done, ctx]() -> sim::Task {
      co_await host_.cpu().consume(
          io_thread_->tid(), cm.blk_per_request + cm.blk_per_page * cm.pages(missing),
          CycleCategory::kDiskRead, ctx);
      co_await host_.disk().read(missing, ctx);
      // Per-command virtio-blk round-trip latency (QD1, cache=none).
      const std::uint64_t cmds =
          (missing + cm.virtio_blk_cmd_bytes - 1) / cm.virtio_blk_cmd_bytes;
      co_await host_.sim().delay(cm.virtio_blk_cmd_latency * static_cast<sim::SimTime>(cmds));
      // First of the vanilla path's five per-byte copies (Fig. 2): DMA'd
      // disk data lands in guest memory through the virtio-blk vqueue.
      const trace::Scope copy =
          trace::Scope::copy(ctx, "copy virtio-blk", io_thread_->tid(), missing);
      co_await host_.cpu().consume(io_thread_->tid(), cm.copy_cost(missing),
                                   CycleCategory::kVirtioCopy, ctx);
      done.set();
    });
    co_await done.wait();
    // Interrupt completion back on the vCPU.
    co_await run_vcpu(cm.interrupt_inject, CycleCategory::kInterrupt, ctx);
    guest_cache_.fill(inode, offset, n);
    ra.done = std::max(ra.done, end);
  }
  // Kick the next readahead window for sequential streams when the
  // remaining prefetched run is shorter than one window.
  const std::uint64_t file_size = fs_->file_size(inode);
  ra.done = std::max(ra.done, end);
  if (sequential && ra.done < file_size && ra.done < end + kGuestReadahead &&
      ra.inflight_end <= ra.done) {
    const std::uint64_t ra_end = std::min(file_size, ra.done + kGuestReadahead);
    ra.inflight_end = ra_end;
    host_.sim().spawn(guest_readahead_task(it->second, inode, ra.done, ra_end, ctx));
  }
}

sim::Task Vm::fs_read(std::uint32_t inode, std::uint64_t offset, std::uint64_t len,
                      mem::Buffer& out, CycleCategory app_cat, bool copy_to_app,
                      trace::Ctx ctx) {
  const hw::CostModel& cm = host_.costs();
  // Guest block layer / VFS submit path on the vCPU.
  co_await run_vcpu(cm.blk_per_request, CycleCategory::kDiskRead, ctx);
  co_await ensure_guest_resident(inode, offset, len, ctx);

  // The actual bytes (pure data plane — identical on every path).
  out = fs_->read(inode, offset, len);

  if (copy_to_app) {
    // Kernel buffer -> application buffer copy, charged to the app.
    const trace::Scope copy = trace::Scope::copy(ctx, "copy kernel->app", vcpu_, out.size());
    co_await run_vcpu(cm.copy_cost(out.size()), app_cat, ctx);
  }
}

sim::Task Vm::fs_append(std::uint32_t inode, const mem::Buffer& data,
                        CycleCategory app_cat) {
  const hw::CostModel& cm = host_.costs();
  // App buffer -> kernel page cache copy plus block-layer submit.
  co_await run_vcpu(cm.copy_cost(data.size()) + cm.blk_per_request, app_cat);
  co_await run_vcpu(cm.virtio_per_segment * cm.segments(data.size()),
                    CycleCategory::kVirtioCopy);

  // Real bytes land on the image immediately (the sim is single-threaded;
  // ordering vs. readers is handled by HDFS's visibility protocol).
  fs_->append(inode, data);
  guest_cache_.fill(inode, fs_->file_size(inode) - data.size(), data.size());

  sim::Event done(host_.sim());
  const std::uint64_t n = data.size();
  io_thread_->submit([this, n, &cm, &done]() -> sim::Task {
    co_await host_.cpu().consume(
        io_thread_->tid(), cm.blk_per_request + cm.blk_per_page * cm.pages(n),
        CycleCategory::kDiskWrite);
    co_await host_.cpu().consume(io_thread_->tid(), cm.copy_cost(n),
                                 CycleCategory::kVirtioCopy);
    co_await host_.disk().write(n);
    done.set();
  });
  co_await done.wait();
  co_await run_vcpu(cm.interrupt_inject, CycleCategory::kInterrupt);
}

}  // namespace vread::virt
