// libvread: the guest-side user-level library (paper §3.1, Table 1).
//
// Wraps the shared-memory channel to the local vRead daemon behind the
// four-call API the paper gives HDFS (vRead_open / vRead_read / vRead_seek
// / vRead_close, plus vRead_update used by the write path), and implements
// the hdfs::BlockReader seam so DfsInputStream's Algorithms 1-2 can use it
// transparently. Guest applications above HDFS never see any of this.
//
// Every operation reports a typed vread::Status. The library owns the
// transient-failure half of the degradation contract: when a call comes
// back retryable (shm timeout, corrupt payload, peer down) it re-issues
// the request under a fresh id with bounded exponential backoff before
// surfacing the failure to the HDFS client, which then falls back to the
// vanilla socket path.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/vread_daemon.h"
#include "fault/status.h"
#include "hdfs/block_reader.h"
#include "virt/shm_channel.h"
#include "virt/vm.h"

namespace vread::core {

class LibVread : public hdfs::BlockReader {
 public:
  // Attaches the client VM to its host's daemon (allocates the ivshmem
  // channel and the per-VM daemon worker). A retryable failure is retried
  // kRetryAttempts times in all before it reaches the caller.
  LibVread(virt::Vm& client_vm, VReadDaemon& daemon)
      : vm_(client_vm),
        channel_(daemon.attach_client(client_vm)),
        retries_(metrics_.counter("vread_lib_retries_total", {{"vm", client_vm.name()}},
                                  "Shm calls re-issued after a retryable failure")),
        retries_exhausted_(metrics_.counter("vread_lib_retries_exhausted_total",
                                            {{"vm", client_vm.name()}},
                                            "Calls that spent the whole retry budget")),
        backoff_ns_(metrics_.counter("vread_lib_backoff_ns_total",
                                     {{"vm", client_vm.name()}},
                                     "Simulated time spent backing off between retries")) {}

  // ---- hdfs::BlockReader (offset-explicit, used by DFSClient) ----
  sim::Task open(sim::Name block_name, sim::Name datanode_id, std::uint64_t& vfd,
                 Status& status, trace::Ctx ctx = {}) override;
  // Struct-form read (hdfs::ReadRequest carries tenant + coalesce/readahead
  // hints; they are stamped straight onto the shm request slot). The
  // positional overload from the base class stays visible as a shim.
  sim::Task read(const hdfs::ReadRequest& req, hdfs::ReadResult& res) override;
  using hdfs::BlockReader::read;
  sim::Task close(std::uint64_t vfd) override;
  sim::Task update(sim::Name datanode_id) override;

  // ---- Table 1 API (descriptor carries a file offset, like a POSIX fd) ----
  // Obtains the descriptor in `vfd` (0 on failure, matching "vRead
  // descriptor" semantics where HDFS falls back when none is obtained).
  sim::Task vread_open(sim::Name block_name, sim::Name datanode_id, std::uint64_t& vfd,
                       Status& status);
  // Reads up to `len` bytes at the descriptor's current offset; on ok the
  // bytes are in `out` and the offset advances by out.size().
  sim::Task vread_read(std::uint64_t vfd, std::uint64_t len, mem::Buffer& out,
                       Status& status);
  // Sets the descriptor's offset (BAD_FD if the descriptor is unknown).
  sim::Task vread_seek(std::uint64_t vfd, std::uint64_t offset, Status& status);
  // Releases the descriptor (BAD_FD if unknown).
  sim::Task vread_close(std::uint64_t vfd, Status& status);

  virt::Vm& vm() { return vm_; }

  // Degradation counters: shm calls re-issued after a retryable failure,
  // and calls that exhausted the retry budget without success.
  std::uint64_t retries() const { return retries_.value(); }
  std::uint64_t retries_exhausted() const { return retries_exhausted_.value(); }

 private:
  // One shm round trip with the bounded-retry/backoff loop. Each retry is
  // a brand-new request id — the original is considered lost.
  sim::Task call(virt::ShmRequest req, virt::ShmResponse& resp, trace::Ctx ctx = {});

  virt::Vm& vm_;
  virt::ShmChannel& channel_;
  const sim::Name tenant_{vm_.name()};  // QoS tenant of requests that name none
  std::unordered_map<std::uint64_t, std::uint64_t> offsets_;  // vfd -> file offset
  std::uint64_t next_req_ = 1;
  metrics::MetricGroup metrics_;
  metrics::Counter& retries_;
  metrics::Counter& retries_exhausted_;
  metrics::Counter& backoff_ns_;
};

}  // namespace vread::core
