// CoalesceMap: single-flight merging of overlapping daemon fills.
//
// PR 4 taught the daemon to share *readahead* state per (datanode, inode)
// through a weak_ptr table; this generalizes that idea into a first-class
// stage between QoS dispatch and the worker pool (DESIGN.md §12). Every
// cache-missing read names a (datanode, block, [offset, offset+len))
// window: what it asks the backing store for. The FIRST request for a
// window becomes the fill's *leader* and does the actual work (page-cache
// fill + loop read locally, the owner's push remotely); any request
// arriving while that fill is in flight and fully covered by its window
// *attaches* as a waiter — once, however many of its chunks the window
// covers — and sleeps on the fill's event. A fill lands progressively: a
// one-shot fill (a local chunk) all at completion, a pushed remote window
// chunk by chunk as its arrivals land, and a waiter wakes as soon as its
// own range is in. The host pays for one disk/wire traversal instead of N.
//
// Failure contract: a failed fill propagates its Status to every waiter
// whose range had not landed. The fill is removed from the table at
// completion either way, so the next request for the same window starts a
// fresh single-flight attempt — failures are retried single-flight, never
// thundering-herd.
//
// Fairness: the leader reports how many bytes the backing store really
// served (fill_bytes); the daemon splits that across the attached
// tenants' QoS accounts so a merged fill costs each tenant its share
// instead of billing the leader for everybody (see
// QosScheduler::charge_fill).
//
// Observability: vread_coalesce_{hits,misses,failed_fills,fill_bytes}
// counters, a waiters-per-fill histogram, and (fed by the hw::Disk batch
// observer) a requests-per-batch histogram, all labelled by host.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/status.h"
#include "mem/buffer.h"
#include "metrics/registry.h"
#include "sim/name.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace vread::core {

class CoalesceMap {
 public:
  struct Fill {
    explicit Fill(sim::Simulation& sim) : done(sim) {}
    sim::Name dn_id;
    sim::Name block_name;
    std::uint64_t offset = 0;  // window this fill will deliver
    std::uint64_t len = 0;
    sim::Event done;           // broadcast when bytes land and on completion
    bool complete = false;
    // The bytes landed so far, from `offset`; dropped at completion when
    // no waiter will read them.
    mem::Buffer data;
    Status status;             // what every waiter sees
    std::uint64_t fill_bytes = 0;     // bytes the backing store actually served
    std::vector<sim::Name> tenants;   // leader first, then each waiter
    std::size_t waiters = 0;          // attached requests (leader excluded)
  };
  using FillPtr = std::shared_ptr<Fill>;

  CoalesceMap(sim::Simulation& sim, const std::string& host);
  CoalesceMap(const CoalesceMap&) = delete;
  CoalesceMap& operator=(const CoalesceMap&) = delete;

  // Finds an in-flight fill whose window fully covers
  // [offset, offset+len) of (dn_id, block). On a match the request is
  // registered as a waiter (tenant recorded for the fill-byte split) and
  // the fill is returned: wait on fill->done until the range has landed in
  // fill->data, then slice it. Returns nullptr when no covering fill is in
  // flight — the caller must lead one via begin().
  FillPtr attach(sim::Name dn_id, sim::Name block, std::uint64_t offset, std::uint64_t len,
                 sim::Name tenant);

  // Publishes a new in-flight fill for the window, led by `tenant`.
  FillPtr begin(sim::Name dn_id, sim::Name block, std::uint64_t offset, std::uint64_t len,
                sim::Name tenant);

  // Lands the next piece of the window (a pushed fill's non-final
  // arrival) and wakes the waiters to check whether their range is in.
  void extend(const FillPtr& fill, const mem::Buffer& piece);

  // Completes a fill: on ok, `data` is the window's last piece (all of it
  // for a one-shot fill), kept only if someone is waiting — the leader
  // already has its copy; on failure a waiter whose range had not landed
  // gets `status`. `fill_bytes` is what the backing store served (disk
  // bytes locally, wire payload remotely).
  // The fill leaves the table before the broadcast, so a request racing
  // in *after* completion starts a fresh single-flight attempt.
  void complete(const FillPtr& fill, mem::Buffer data, Status status,
                std::uint64_t fill_bytes);

  // hw::Disk::BatchObserver target: records one sealed submission batch.
  void observe_batch(std::size_t requests, std::uint64_t bytes);

  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  std::uint64_t failed_fills() const { return failed_fills_.value(); }
  std::uint64_t fill_bytes() const { return fill_bytes_.value(); }
  const metrics::Histogram& batch_requests() const { return batch_h_; }

 private:
  sim::Simulation& sim_;
  // Fills currently in flight, in begin order. Two non-overlapping windows
  // of one block may fill concurrently. The set is as small as the
  // daemon's concurrency, so a scan comparing interned names beats a
  // table and, once the vector has grown, allocates nothing.
  std::vector<FillPtr> inflight_;

  metrics::MetricGroup metrics_;
  metrics::Counter& hits_;
  metrics::Counter& misses_;
  metrics::Counter& failed_fills_;
  metrics::Counter& fill_bytes_;
  metrics::Histogram& waiters_h_;
  metrics::Histogram& batch_h_;
};

}  // namespace vread::core
