// Shared-memory communication channel between a guest VM and the
// hypervisor-side vRead daemon (paper §3.3 / §4).
//
// Models the prototype's ivshmem-based design: a POSIX SHM object exposed
// to the guest as a virtual PCI device, divided into 1024 x 4 KB slots with
// per-slot locks, plus eventfd doorbells in both directions (host->guest
// doorbells become virtual interrupts). Requests flow guest -> host through
// a control area; response data flows host -> guest through the slot ring
// with real flow control (the producer blocks when the ring is full).
//
// The only per-byte CPU costs on this path are the daemon's copy into the
// ring and the guest's copy out of it — the two copies the paper's
// five-minus-three arithmetic leaves standing. The RDMA remote path DMAs
// payloads straight into the ring (registered memory region), so the
// producer-side copy can be skipped via `charge_copy = false`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "fault/status.h"
#include "hw/cost_model.h"
#include "mem/buffer.h"
#include "metrics/registry.h"
#include "sim/name.h"
#include "sim/sync.h"
#include "virt/host.h"
#include "virt/vm.h"

namespace vread::virt {

struct ShmRequest {
  std::uint64_t id = 0;
  int op = 0;                // opcode namespace owned by the vRead core
  sim::Name block_name;      // HDFS block file name
  sim::Name datanode_id;     // target datanode
  std::uint64_t vfd = 0;
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  sim::Name tenant;          // QoS accounting identity; libvread stamps the
                             // client VM's name (streams may override), the
                             // daemon falls back to the channel's VM
  // Read hints carried from hdfs::ReadRequest (DESIGN.md §12).
  bool coalesce = true;      // may attach to / lead a merged fill
  bool readahead = true;     // may trigger the sequential readahead engine
  sim::SimTime deadline = 0; // absolute sim deadline; 0 = none. The QoS
                             // EDF lane (DESIGN.md §16) orders on this
                             // within the tenant's DRR share
  // Cooperative-cancel flag for hedged reads (DESIGN.md §16): the client
  // wrapper owns the pointee and flips it when the other leg wins; the
  // daemon's stream loops poll it between chunks and abort the loser with
  // kVReadErrCancelled, un-charging its delivered bytes. shared_ptr, not a
  // raw pointer: the losing leg can outlive the wrapper's frame. Models a
  // cancel doorbell in the shm control area (like `ctx`, it rides the
  // request slot without being counted as payload).
  std::shared_ptr<const bool> cancel;
  bool hedge = false;        // this request is a hedge (second) leg
  trace::Ctx ctx{};          // read attribution; rides the request slot so
                             // daemon-side spans join the client's trace
};

struct ShmResponse {
  std::uint64_t id = 0;
  std::int64_t status = 0;  // >= 0 success; < 0 errno-style failure
  std::uint64_t vfd = 0;
  mem::Buffer data;
};

class ShmChannel {
 public:
  // `max_outstanding` caps concurrent in-flight requests on this channel
  // (the control area holds that many request slots); extra callers queue
  // FIFO. Responses demultiplex by request id, so requests complete out of
  // order and one slow request never serializes the others.
  ShmChannel(Vm& guest, const hw::CostModel& cm,
             std::size_t max_outstanding = kDefaultMaxOutstanding)
      : guest_(guest),
        cm_(cm),
        max_outstanding_(max_outstanding == 0 ? 1 : max_outstanding),
        requests_(guest.host().sim()),
        slots_(guest.host().sim(), cm.shm_slot_count),
        outstanding_(guest.host().sim(), max_outstanding == 0 ? 1 : max_outstanding),
        timeouts_(metrics_.counter("vread_shm_timeouts_total", {{"vm", guest.name()}},
                                   "Guest calls that hit the response timeout")),
        corruptions_(metrics_.counter("vread_shm_corruptions_total",
                                      {{"vm", guest.name()}},
                                      "Responses failing payload validation")),
        slot_waits_(metrics_.counter("vread_shm_slot_waits_total",
                                     {{"vm", guest.name()}},
                                     "Producer stalls on a full slot ring")),
        ring_depth_g_(metrics_.gauge("vread_shm_ring_depth", {{"vm", guest.name()}},
                                     "Slots in use (high = deepest the ring got)")),
        ring_wait_ns_(metrics_.histogram("vread_shm_ring_wait_ns",
                                         {{"vm", guest.name()}},
                                         "Producer wait for free slots when blocked")),
        inflight_g_(metrics_.gauge("vread_shm_inflight", {{"vm", guest.name()}},
                                   "Requests in flight on this channel "
                                   "(high = deepest the pipeline got)")) {}
  ShmChannel(const ShmChannel&) = delete;
  ShmChannel& operator=(const ShmChannel&) = delete;

  Vm& guest() { return guest_; }

  // ---- guest side (runs on the guest vCPU) ----
  // Issues one request and gathers the full response (all data chunks).
  // Requests demultiplex by id: up to `max_outstanding` calls proceed
  // concurrently, each collecting its own chunks from a per-request
  // completion mailbox, so responses may complete out of order. Callers
  // must use distinct ids for concurrently outstanding requests (libvread
  // allocates a fresh id per attempt).
  sim::Task call(ShmRequest req, ShmResponse& out) {
    const trace::Ctx ctx = req.ctx;
    co_await outstanding_.acquire();
    inflight_g_.set(static_cast<std::int64_t>(max_outstanding_ - outstanding_.available()));
    // eventfd doorbell write, translated by the guest vRead driver.
    co_await guest_.run_vcpu(cm_.doorbell_guest, hw::CycleCategory::kInterrupt, ctx);
    // Injected request loss: the doorbell fired but the daemon never saw
    // the mailbox entry (daemon wedged, ring race). This caller burns the
    // full timeout before reporting the shortcut unavailable, but holds no
    // lock while it waits — other requests keep flowing through the ring.
    if (fault::registry().should_fire(fault::points::kShmTimeout)) {
      co_await guest_.host().sim().delay(kCallTimeout);
      out = ShmResponse{};
      out.id = req.id;
      out.status = kVReadErrTimeout;
      timeouts_.inc();
      finish_call();
      co_return;
    }
    const std::uint64_t rid = req.id;
    // Lives in this call's frame, which stays put until the last chunk.
    sim::Mailbox<Chunk> mbox(guest_.host().sim());
    pending_.emplace_back(rid, &mbox);
    requests_.send(std::move(req));
    out = ShmResponse{};
    for (;;) {
      Chunk c = co_await mbox.recv();
      out.id = c.req_id;
      out.status = c.status;
      out.vfd = c.vfd;
      if (!c.data.empty()) {
        const std::uint64_t used = slots_for(c.data.size());
        // Virtual interrupt + per-slot lock handling on the vCPU.
        co_await guest_.run_vcpu(cm_.interrupt_inject + cm_.shm_slot_overhead * used,
                                 hw::CycleCategory::kInterrupt, ctx);
        // Copy: shared-memory ring -> application buffer (the second of
        // vRead's two standing copies).
        const trace::Scope copy =
            trace::Scope::copy(ctx, "copy ring->app", guest_.vcpu_tid(), c.data.size());
        co_await guest_.run_vcpu(cm_.copy_cost(c.data.size()),
                                 hw::CycleCategory::kVreadBufferCopy, ctx);
        out.data.append(c.data);
        slots_.release(used);
        ring_depth_g_.set(
            static_cast<std::int64_t>(cm_.shm_slot_count - slots_.available()));
      } else {
        co_await guest_.run_vcpu(cm_.interrupt_inject, hw::CycleCategory::kInterrupt, ctx);
      }
      if (c.last) break;
    }
    for (auto& p : pending_) {
      if (p.first == rid) {
        p = pending_.back();
        pending_.pop_back();
        break;
      }
    }
    // Injected response corruption: the payload landed but fails the
    // library's validation; callers treat it like any retryable failure.
    if (fault::registry().should_fire(fault::points::kShmCorrupt)) {
      out.data = mem::Buffer();
      out.status = kVReadErrCorrupt;
      corruptions_.inc();
    }
    finish_call();
  }

  // ---- host side (runs on a vRead daemon thread) ----
  sim::Mailbox<ShmRequest>& requests() { return requests_; }

  // Streams one *part* of a response into the ring. A response may span
  // many parts (the daemon streams block reads in packet-sized pieces so
  // disk, ring and guest consumption pipeline); only the final part sets
  // `last`, which completes the guest's call(). `charge_copy = false`
  // models RDMA having already DMA'd the payload into the registered ring
  // memory.
  sim::Task respond_part(hw::ThreadId daemon_tid, std::uint64_t req_id,
                         std::int64_t status, std::uint64_t vfd, mem::Buffer data,
                         bool last, bool charge_copy = true, trace::Ctx ctx = {}) {
    hw::CpuScheduler& cpu = guest_.host().cpu();
    if (data.empty()) {
      co_await cpu.consume(daemon_tid, cm_.doorbell_host, hw::CycleCategory::kInterrupt,
                           ctx);
      deliver(Chunk{req_id, status, vfd, mem::Buffer(), last});
      co_return;
    }
    // Never ask for more slots than the ring has (tiny-ring configs).
    const std::uint64_t max_chunk =
        std::min<std::uint64_t>(chunk_bytes(), cm_.shm_slot_count * cm_.shm_slot_size);
    std::uint64_t offset = 0;
    while (offset < data.size()) {
      const std::uint64_t n = std::min<std::uint64_t>(max_chunk, data.size() - offset);
      const std::uint64_t used = slots_for(n);
      const sim::SimTime w0 = guest_.host().sim().now();
      {
        // Ring-full backpressure: the guest has not drained earlier chunks.
        const trace::Scope wait = trace::Scope::wait(ctx, "shm-ring-full", daemon_tid);
        co_await slots_.acquire(used);
      }
      const sim::SimTime waited = guest_.host().sim().now() - w0;
      if (waited > 0) {
        slot_waits_.inc();
        ring_wait_ns_.observe(static_cast<std::uint64_t>(waited));
      }
      ring_depth_g_.set(
          static_cast<std::int64_t>(cm_.shm_slot_count - slots_.available()));
      co_await cpu.consume(daemon_tid, cm_.shm_slot_overhead * used,
                           hw::CycleCategory::kVreadBufferCopy, ctx);
      if (charge_copy) {
        // Copy: daemon buffer -> shared-memory ring (the first of vRead's
        // two standing copies; RDMA DMAs into the ring and skips it).
        const trace::Scope copy = trace::Scope::copy(ctx, "copy daemon->ring", daemon_tid, n);
        co_await cpu.consume(daemon_tid, cm_.copy_cost(n),
                             hw::CycleCategory::kVreadBufferCopy, ctx);
      }
      co_await cpu.consume(daemon_tid, cm_.doorbell_host,
                           hw::CycleCategory::kInterrupt, ctx);
      const bool ring_last = last && offset + n == data.size();
      deliver(Chunk{req_id, status, vfd, data.slice(offset, n), ring_last});
      offset += n;
    }
  }

  // Single-shot response (control operations, errors, whole payloads).
  sim::Task respond(hw::ThreadId daemon_tid, ShmResponse resp, bool charge_copy = true,
                    trace::Ctx ctx = {}) {
    co_await respond_part(daemon_tid, resp.id, resp.status, resp.vfd,
                          std::move(resp.data), /*last=*/true, charge_copy, ctx);
  }

  std::uint64_t free_slots() const { return slots_.available(); }
  // In-flight request accounting (the vread_shm_inflight series).
  std::uint64_t inflight() const { return max_outstanding_ - outstanding_.available(); }
  std::int64_t inflight_high() const { return inflight_g_.high(); }

 private:
  struct Chunk {
    std::uint64_t req_id;
    std::int64_t status;
    std::uint64_t vfd;
    mem::Buffer data;
    bool last;
  };

  static constexpr std::size_t kDefaultMaxOutstanding = 8;

  // How long the guest waits for a response before declaring the request
  // lost (kVReadErrTimeout on the wire) — the "daemon did not answer" half
  // of the paper's fallback contract.
  static constexpr sim::SimTime kCallTimeout = sim::ms(5);

  // 64 slots per doorbell (256 KB at the default 4 KB slot size): batches
  // interrupts like the prototype. Scales with the configured slot size so
  // ring-geometry sweeps actually change the doorbell batch.
  std::uint64_t chunk_bytes() const { return 64 * cm_.shm_slot_size; }

  std::uint64_t slots_for(std::uint64_t bytes) const {
    return (bytes + cm_.shm_slot_size - 1) / cm_.shm_slot_size;
  }

  // Routes a response chunk to the completion mailbox of the request it
  // answers. A chunk for an id nobody waits on (the caller timed out and
  // wrote the request off) frees its ring slots so the ring cannot leak.
  void deliver(Chunk c) {
    for (const auto& [id, mbox] : pending_) {
      if (id == c.req_id) {
        mbox->send(std::move(c));
        return;
      }
    }
    if (!c.data.empty()) {
      slots_.release(slots_for(c.data.size()));
      ring_depth_g_.set(
          static_cast<std::int64_t>(cm_.shm_slot_count - slots_.available()));
    }
  }

  void finish_call() {
    outstanding_.release();
    inflight_g_.set(
        static_cast<std::int64_t>(max_outstanding_ - outstanding_.available()));
  }

  Vm& guest_;
  const hw::CostModel& cm_;
  std::size_t max_outstanding_;
  sim::Mailbox<ShmRequest> requests_;
  sim::Semaphore slots_;
  sim::Semaphore outstanding_;
  // Request id -> the issuing call()'s completion mailbox (owned by the
  // call frame; removed before the frame returns). At most
  // max_outstanding entries, so a scan beats a hash table and allocates
  // nothing once the vector has grown.
  std::vector<std::pair<std::uint64_t, sim::Mailbox<Chunk>*>> pending_;
  metrics::MetricGroup metrics_;
  metrics::Counter& timeouts_;
  metrics::Counter& corruptions_;
  metrics::Counter& slot_waits_;
  metrics::Gauge& ring_depth_g_;
  metrics::Histogram& ring_wait_ns_;
  metrics::Gauge& inflight_g_;
};

}  // namespace vread::virt
