// Pluggable shortcut block-reader interface.
//
// This is the seam where vRead hooks into the HDFS client (the paper's
// re-implemented DFSClient read interfaces): when a reader is installed,
// DfsInputStream::read1/read2 try it first and fall back to the vanilla
// socket path whenever a descriptor cannot be obtained (Algorithms 1-2).
// The interface mirrors the libvread API of Table 1, with every outcome
// reported as a typed vread::Status so callers can distinguish stale
// descriptors (re-open immediately) from transient transport trouble
// (bounded retry, then degrade with a cooldown) from hard misses.
#pragma once

#include <cstdint>
#include <string>

#include "fault/status.h"
#include "hdfs/read_request.h"
#include "mem/buffer.h"
#include "sim/name.h"
#include "sim/task.h"
#include "trace/tracer.h"

namespace vread::hdfs {

class BlockReader {
 public:
  virtual ~BlockReader() = default;

  // vRead_open: obtains a descriptor for (block, datanode). A non-ok
  // status means the shortcut is unavailable (unknown datanode, stale
  // mount, transport trouble, ...) and the caller must fall back to the
  // socket path; `vfd` is 0 in that case.
  // `ctx` carries the caller's trace context through the shortcut (all
  // implementations must propagate it; {} = untraced).
  // Names are interned (sim::Name) where the block and datanode first
  // appear, so opening never builds one from a string.
  virtual sim::Task open(sim::Name block_name, sim::Name datanode_id, std::uint64_t& vfd,
                         Status& status, trace::Ctx ctx = {}) = 0;

  // vRead_read: reads up to `req.len` bytes at `req.offset` of the block
  // file named by `req.vfd`. On ok, `res.data` holds the bytes (possibly
  // clamped at end of block); on failure it is empty and `res.status`
  // says why -> fall back. The request carries every per-read option
  // (tenant, coalesce/readahead hints, deadline, hedge plumbing) so new
  // options never change this signature again.
  virtual sim::Task read(const ReadRequest& req, ReadResult& res) = 0;

  // Positional compat shim (pre-ReadRequest surface). Subclasses that
  // override the struct form should `using BlockReader::read;` to keep
  // this overload visible.
  sim::Task read(std::uint64_t vfd, std::uint64_t offset, std::uint64_t len,
                 mem::Buffer& out, Status& status, trace::Ctx ctx = {}) {
    ReadRequest req;
    req.vfd = vfd;
    req.offset = offset;
    req.len = len;
    req.ctx = ctx;
    ReadResult res;
    co_await read(req, res);
    out = std::move(res.data);
    status = std::move(res.status);
  }

  // vRead_close: releases the descriptor.
  virtual sim::Task close(std::uint64_t vfd) = 0;

  // vRead_update: refreshes the daemon's view of a datanode's filesystem
  // after a block create/delete/rename (called from the write path).
  virtual sim::Task update(sim::Name datanode_id) = 0;
};

}  // namespace vread::hdfs
