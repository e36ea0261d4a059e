#include "core/coalesce.h"

#include <utility>

namespace vread::core {

CoalesceMap::CoalesceMap(sim::Simulation& sim, const std::string& host)
    : sim_(sim),
      hits_(metrics_.counter("vread_coalesce_hits_total", {{"host", host}},
                             "Reads attached as waiters to an in-flight fill")),
      misses_(metrics_.counter("vread_coalesce_misses_total", {{"host", host}},
                               "Reads that became the leader of a new fill")),
      failed_fills_(metrics_.counter("vread_coalesce_failed_fills_total", {{"host", host}},
                                     "Fills whose failure fanned out to waiters")),
      fill_bytes_(metrics_.counter("vread_coalesce_fill_bytes_total", {{"host", host}},
                                   "Backing-store bytes served by completed fills")),
      waiters_h_(metrics_.histogram("vread_coalesce_waiters", {{"host", host}},
                                    "Waiters fanned out per completed fill")),
      batch_h_(metrics_.histogram("vread_coalesce_batch_requests", {{"host", host}},
                                  "Fill reads per sealed disk submission batch")) {}

CoalesceMap::FillPtr CoalesceMap::attach(sim::Name dn_id, sim::Name block,
                                         std::uint64_t offset, std::uint64_t len,
                                         sim::Name tenant) {
  for (const FillPtr& f : inflight_) {
    if (f->dn_id != dn_id || f->block_name != block) continue;
    // Only full coverage qualifies: a partially-overlapping window would
    // force the waiter to issue a second read for the remainder, which
    // costs more than leading its own fill (the page cache already merges
    // the shared pages).
    if (offset >= f->offset && offset + len <= f->offset + f->len) {
      hits_.inc();
      ++f->waiters;
      f->tenants.push_back(tenant);
      return f;
    }
  }
  return nullptr;
}

CoalesceMap::FillPtr CoalesceMap::begin(sim::Name dn_id, sim::Name block,
                                        std::uint64_t offset, std::uint64_t len,
                                        sim::Name tenant) {
  misses_.inc();
  auto fill = std::make_shared<Fill>(sim_);
  fill->dn_id = dn_id;
  fill->block_name = block;
  fill->offset = offset;
  fill->len = len;
  fill->tenants.push_back(tenant);
  inflight_.push_back(fill);
  return fill;
}

void CoalesceMap::complete(const FillPtr& fill, mem::Buffer data, Status status,
                           std::uint64_t fill_bytes) {
  // Out of the table FIRST: once complete, the window must not accrete new
  // waiters — a failed fill is retried single-flight by whichever request
  // arrives next, and a succeeded one is served by the block cache.
  for (auto f = inflight_.begin(); f != inflight_.end(); ++f) {
    if (*f == fill) {
      inflight_.erase(f);
      break;
    }
  }
  fill->complete = true;
  fill->status = std::move(status);
  // The payload is retained only when someone will read it; the leader
  // already holds its own copy, so a solo fill stores nothing.
  if (fill->waiters == 0) {
    fill->data = mem::Buffer();
  } else if (fill->status.ok()) {
    fill->data.append(data);
  }
  fill->fill_bytes = fill_bytes;
  if (fill->status.ok()) {
    fill_bytes_.inc(fill_bytes);
  } else {
    failed_fills_.inc();
  }
  waiters_h_.observe(fill->waiters);
  fill->done.set();
}

void CoalesceMap::extend(const FillPtr& fill, const mem::Buffer& piece) {
  fill->data.append(piece);
  fill->done.set();
}

void CoalesceMap::observe_batch(std::size_t requests, std::uint64_t bytes) {
  (void)bytes;
  batch_h_.observe(requests);
}

}  // namespace vread::core
