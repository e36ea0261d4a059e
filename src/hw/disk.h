// Physical disk (SSD) timing model.
//
// FIFO service: each request costs a fixed access latency plus transfer
// time at the device bandwidth; requests serialize on the device. The
// *CPU* side of a disk access (block layer, virtio-blk) is charged by the
// caller via the cost model — this class models device time only.
//
// Batched submission (io_uring-style, DESIGN.md §12): when configured,
// read_batched() requests collect in a submission window that seals after
// `max_requests` have joined or `window` ns after it opened (0 = collect
// only requests issued at the same instant). A sealed batch is sorted by
// offset and submitted as ONE device operation: a single access latency is
// paid for the whole batch — that is what the sort buys — plus transfer of
// the summed bytes, and every member completes together. read() bypasses
// the window unconditionally.
//
// Variability (DESIGN.md §16): SSD service time is not constant in
// production — background garbage collection blocks the device for whole
// windows, a recent write stalls reads behind internal buffer flushes, and
// requests hash onto internal channels whose queues drain independently.
// configure_variability() layers all three onto schedule() as a pure
// function of (config, request sequence, sim time): no wall clocks, no
// stateful RNG, so a given seed reproduces the exact same tail spike on
// every run. Disabled (the default) the device is bit-identical to the
// pre-variability model.
//
// Tracing (DESIGN.md §8): every read records its own "disk-read" span on the
// disk's track, from submission to completion, device queueing included.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/time.h"
#include "trace/tracer.h"

namespace vread::hw {

class Disk {
 public:
  struct Config {
    double read_bw_mbps = 190.0;  // effective sequential read (image file path)
  };

  // SSD-class sequential write bandwidth and the per-request access
  // latencies of a read and a write.
  static constexpr double kWriteBwMbps = 320.0;
  static constexpr sim::SimTime kReadLatency = sim::us(150);
  static constexpr sim::SimTime kWriteLatency = sim::us(60);
  // A read issued within this long of the last write's completion pays
  // Variability::write_stall (the device's internal buffer flush).
  static constexpr sim::SimTime kWriteStallWindow = sim::us(200);

  // Submission-window tuning for read_batched().
  struct BatchConfig {
    std::size_t max_requests = 8;  // seal when this many requests joined
    sim::SimTime window = 0;       // ...or this long after the window opened
  };

  // Seeded SSD variability model (DESIGN.md §16). Carried by
  // core::DaemonConfig::disk and validated by DaemonConfig::Validate();
  // the daemon applies it to its host's device at construction.
  struct Variability {
    bool enabled = false;          // false = constant-service device
    std::uint64_t seed = 1;        // GC phase / channel-hash seed
    // Background GC: once per `gc_period` the device blocks for
    // `gc_duration`; the window's offset inside its period is hashed from
    // (seed, period index) across [0, period - duration), so replicas
    // seeded differently stall at different times — which is exactly the
    // window hedged reads exploit.
    sim::SimTime gc_period = sim::ms(50);
    sim::SimTime gc_duration = sim::ms(2);
    // Write interference: a read issued within kWriteStallWindow of the
    // last write's completion pays `write_stall` extra access latency
    // (internal buffer flush ahead of the read).
    sim::SimTime write_stall = sim::us(400);
    // Internal parallelism: requests hash onto `channels` independent
    // queues (1 = the classic single FIFO). An unlucky run of same-channel
    // requests queues behind itself while other channels idle — the
    // classic source of p99 dispersion at mid load.
    std::size_t channels = 1;
  };

  // Called once per sealed batch with (requests, total bytes) — the
  // occupancy feed for the vread_coalesce_batch_requests histogram. Kept
  // as a callback so hw/ stays free of a metrics dependency.
  using BatchObserver = std::function<void(std::size_t, std::uint64_t)>;

  // `track` names the trace track this disk's reads land on.
  Disk(sim::Simulation& sim, Config config, trace::TrackName track = {"disk", "disk"})
      : sim_(sim), config_(config), track_(std::move(track)) {}
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  struct IoAwaiter {
    Disk& disk;
    std::uint64_t bytes;
    bool is_write;
    trace::Scope span{};  // a read's disk-read span; closes after completion
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim::SimTime completion = disk.schedule(bytes, is_write);
      disk.sim_.resume_at(completion, h);
    }
    void await_resume() const noexcept {}
  };

  // Awaitable device-time read/write of `bytes`; `ctx` is the read the
  // bytes are for.
  IoAwaiter read(std::uint64_t bytes, trace::Ctx ctx) {
    bytes_read_ += bytes;
    ++reads_;
    return IoAwaiter{*this, bytes, false, read_span(ctx, bytes)};
  }
  IoAwaiter write(std::uint64_t bytes) {
    bytes_written_ += bytes;
    return IoAwaiter{*this, bytes, true};
  }

  // Enables the batched submission path (daemon coalescing fills route
  // through it). Re-configuring replaces the observer; an open window
  // keeps its original parameters until it seals.
  void configure_batching(BatchConfig cfg, BatchObserver observer = {}) {
    if (cfg.max_requests == 0) cfg.max_requests = 1;
    batch_cfg_ = cfg;
    batch_observer_ = std::move(observer);
    batching_ = true;
  }

  struct BatchAwaiter {
    Disk& disk;
    std::uint64_t bytes;
    trace::Scope span;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      disk.bytes_read_ += bytes;
      ++disk.reads_;
      if (!disk.batching_) {
        disk.sim_.resume_at(disk.schedule(bytes, /*is_write=*/false), h);
        return;
      }
      disk.join_batch(bytes, h);
    }
    void await_resume() const noexcept {}
  };

  // Awaitable batched read: joins the open submission window (opening one
  // if none is pending). Identical to read() when batching is off.
  BatchAwaiter read_batched(std::uint64_t bytes, trace::Ctx ctx) {
    return BatchAwaiter{*this, bytes, read_span(ctx, bytes)};
  }

  // Enables (or replaces) the variability model. Safe to call between
  // requests; in-flight completions keep their already-computed times.
  void configure_variability(Variability v) {
    if (v.channels == 0) v.channels = 1;
    var_ = v;
    chan_free_.assign(var_.enabled ? var_.channels : 1, next_free_);
  }

  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t read_count() const { return reads_; }
  std::uint64_t batch_count() const { return batches_; }
  std::uint64_t gc_stall_count() const { return gc_stalls_; }
  std::uint64_t write_stall_count() const { return write_stalls_; }
  const Config& config() const { return config_; }

 private:
  struct Batch {
    std::uint64_t id = 0;
    std::uint64_t total = 0;
    std::vector<std::coroutine_handle<>> members;
  };

  trace::Scope read_span(trace::Ctx ctx, std::uint64_t bytes) const {
    return trace::Scope::after(ctx, trace::SpanKind::kDisk, "disk-read", track_, bytes);
  }

  void join_batch(std::uint64_t bytes, std::coroutine_handle<> h) {
    if (!open_batch_) {
      open_batch_ = std::make_unique<Batch>();
      open_batch_->id = ++next_batch_id_;
      // Seal timer: fires even at window 0 — post() enqueues after every
      // event already scheduled for `now`, so truly simultaneous
      // submissions still land in one batch.
      const std::uint64_t id = open_batch_->id;
      sim_.post(batch_cfg_.window, [this, id] { seal(id); });
    }
    open_batch_->total += bytes;
    open_batch_->members.push_back(h);
    if (open_batch_->members.size() >= batch_cfg_.max_requests) seal(open_batch_->id);
  }

  void seal(std::uint64_t id) {
    // The timer may fire after a count-triggered seal already closed this
    // window (or after a newer window opened): match by id.
    if (!open_batch_ || open_batch_->id != id) return;
    std::unique_ptr<Batch> b = std::move(open_batch_);
    ++batches_;
    if (batch_observer_) batch_observer_(b->members.size(), b->total);
    const sim::SimTime completion = schedule(b->total, /*is_write=*/false);
    for (std::coroutine_handle<> h : b->members) sim_.resume_at(completion, h);
  }

  sim::SimTime schedule(std::uint64_t bytes, bool is_write) {
    const double bw = (is_write ? kWriteBwMbps : config_.read_bw_mbps) * 1e6;
    sim::SimTime latency = is_write ? kWriteLatency : kReadLatency;
    const sim::SimTime xfer =
        static_cast<sim::SimTime>(static_cast<double>(bytes) / bw * 1e9);
    if (!var_.enabled) {
      sim::SimTime start = std::max(sim_.now(), next_free_);
      sim::SimTime completion = start + latency + xfer;
      next_free_ = completion;
      return completion;
    }
    // Channel hash: the k-th submission lands on a seeded-pseudorandom
    // channel, so queueing depends on the draw, not just aggregate load.
    const std::size_t ch =
        var_.channels <= 1
            ? 0
            : static_cast<std::size_t>(mix(var_.seed ^ 0x636861ULL, submit_seq_++) %
                                       var_.channels);
    if (ch >= chan_free_.size()) chan_free_.resize(var_.channels, next_free_);
    sim::SimTime start = std::max(sim_.now(), chan_free_[ch]);
    // Write interference: reads dispatched on the heels of a write wait
    // out the device's internal flush.
    if (!is_write && var_.write_stall > 0 && last_write_end_ > 0 &&
        start < last_write_end_ + kWriteStallWindow) {
      latency += var_.write_stall;
      ++write_stalls_;
    }
    // Background GC: a request starting inside the current period's
    // (seeded) window is held until the window closes. The hashed offset
    // stays below period - duration, so a window is contained in its
    // period and one containment check suffices.
    if (var_.gc_period > 0 && var_.gc_duration > 0 &&
        var_.gc_duration < var_.gc_period) {
      const std::uint64_t k =
          static_cast<std::uint64_t>(start) / static_cast<std::uint64_t>(var_.gc_period);
      const auto span = static_cast<std::uint64_t>(var_.gc_period - var_.gc_duration);
      const auto woff = static_cast<sim::SimTime>(mix(var_.seed, k) % span);
      const sim::SimTime ws = static_cast<sim::SimTime>(k) * var_.gc_period + woff;
      if (start >= ws && start < ws + var_.gc_duration) {
        start = ws + var_.gc_duration;
        ++gc_stalls_;
      }
    }
    const sim::SimTime completion = start + latency + xfer;
    chan_free_[ch] = completion;
    if (is_write) last_write_end_ = completion;
    // Aggregate horizon: a re-configure (channel-count change) starts every
    // channel from the busiest point seen so far, never in the past.
    next_free_ = std::max(next_free_, completion);
    return completion;
  }

  // SplitMix64-style stateless mixer: timing is a pure function of
  // (seed, index), which is what makes seeded tail spikes replayable.
  static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  sim::Simulation& sim_;
  Config config_;
  trace::TrackName track_;
  sim::SimTime next_free_ = 0;
  // Variability state (all inert while var_.enabled is false).
  Variability var_{};
  std::vector<sim::SimTime> chan_free_;
  std::uint64_t submit_seq_ = 0;
  sim::SimTime last_write_end_ = 0;
  std::uint64_t gc_stalls_ = 0;
  std::uint64_t write_stalls_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t reads_ = 0;
  // Batched submission state.
  bool batching_ = false;
  BatchConfig batch_cfg_{};
  BatchObserver batch_observer_{};
  std::unique_ptr<Batch> open_batch_;
  std::uint64_t next_batch_id_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace vread::hw
