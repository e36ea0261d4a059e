// Unified read-option carrier for the vRead client surface.
//
// See docs/API.md §ReadRequest. The read1/read2/pread variants on
// DfsInputStream and the BlockReader virtuals all take one struct pair,
// so a new per-read option (tenant, coalescing, readahead, hedging,
// deadlines) is a new field, not a signature change on every one of
// them. Callers fill in what they care about; defaults mean "what the old
// overloads did". The old positional entry points remain as thin inline
// shims that populate a ReadRequest and forward.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fault/status.h"
#include "mem/buffer.h"
#include "sim/name.h"
#include "sim/time.h"
#include "trace/tracer.h"

namespace vread::hdfs {

struct ReadRequest {
  // `offset` sentinel: read at the stream's current position and advance
  // it (what read1 does). Any other value is an absolute position
  // (positional read; the stream cursor is untouched).
  static constexpr std::uint64_t kCurrentPos = ~std::uint64_t{0};

  std::uint64_t vfd = 0;       // BlockReader level only; streams ignore it
  std::uint64_t offset = kCurrentPos;
  std::uint64_t len = 0;

  sim::Name tenant;            // QoS identity; empty = the reader's default
  sim::SimTime deadline = 0;   // absolute sim deadline; 0 = none. The
                               // daemon's QoS EDF lane (DESIGN.md §16)
                               // orders on it within the tenant's share

  // Hedged-read leg plumbing (DESIGN.md §16). Filled by the hedging
  // wrapper in DfsInputStream, not by callers: `cancel` points at the
  // race's shared cancel flag (the daemon aborts a leg whose flag is set
  // between chunks), `hedge` marks the second leg for attribution.
  std::shared_ptr<const bool> cancel;
  bool hedge = false;

  bool coalesce = true;        // allow attaching to / leading a merged fill
  bool readahead = true;       // allow the daemon's sequential readahead

  trace::Ctx ctx{};            // trace attribution ({} = start a new read)
};

struct ReadResult {
  mem::Buffer data;
  Status status;
};

}  // namespace vread::hdfs
