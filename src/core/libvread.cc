#include "core/libvread.h"

namespace vread::core {

using hw::CycleCategory;
using virt::ShmRequest;
using virt::ShmResponse;

sim::Task LibVread::call(ShmRequest req, ShmResponse& resp, trace::Ctx ctx) {
  req.ctx = ctx;
  if (req.tenant.empty()) req.tenant = tenant_;
  for (int attempt = 1;; ++attempt) {
    ShmRequest wire = req;
    wire.id = next_req_++;
    co_await channel_.call(std::move(wire), resp);
    if (resp.status >= 0) co_return;
    if (!Status::from_wire(resp.status).is_retryable()) co_return;
    if (attempt >= kRetryAttempts) {
      retries_exhausted_.inc();
      co_return;
    }
    // Transient failure (timeout / corrupt payload / peer down): back off
    // and re-issue under a fresh id — the original request is written off.
    retries_.inc();
    trace::tracer().instant(ctx, trace::SpanKind::kRetry, "libvread-retry",
                            static_cast<int>(vm_.vcpu_tid()));
    const sim::SimTime backoff = retry_backoff_before(attempt + 1);
    backoff_ns_.inc(static_cast<std::uint64_t>(backoff));
    co_await vm_.host().sim().delay(backoff);
  }
}

sim::Task LibVread::open(sim::Name block_name, sim::Name datanode_id, std::uint64_t& vfd,
                         Status& status, trace::Ctx ctx) {
  const trace::Scope span = trace::Scope::open(ctx, trace::SpanKind::kStage, "vread-open",
                                                vm_.vcpu_tid());
  ctx = span.ctx();
  // Library + JNI work for initializing the descriptor's data structures.
  co_await vm_.run_vcpu(vm_.host().costs().vread_open_guest, CycleCategory::kClientApp,
                        ctx);
  ShmRequest req;
  req.op = static_cast<int>(VReadOp::kOpen);
  req.block_name = block_name;
  req.datanode_id = datanode_id;
  ShmResponse resp;
  co_await call(std::move(req), resp, ctx);
  status = resp.status >= 0 ? Status::Ok()
                            : Status::from_wire(resp.status,
                                                block_name.str() + "@" + datanode_id.str());
  vfd = status.ok() ? resp.vfd : 0;
}

sim::Task LibVread::read(const hdfs::ReadRequest& req, hdfs::ReadResult& res) {
  trace::Scope span = trace::Scope::open(req.ctx, trace::SpanKind::kStage, "vread-read",
                                          vm_.vcpu_tid());
  ShmRequest wire;
  wire.op = static_cast<int>(VReadOp::kRead);
  wire.vfd = req.vfd;
  wire.offset = req.offset;
  wire.len = req.len;
  wire.tenant = req.tenant;  // empty -> call() stamps the library default
  wire.coalesce = req.coalesce;
  wire.readahead = req.readahead;
  wire.deadline = req.deadline;
  wire.cancel = req.cancel;
  wire.hedge = req.hedge;
  ShmResponse resp;
  co_await call(std::move(wire), resp, span.ctx());
  res.status = Status::from_wire(resp.status);
  if (!res.status.ok()) {
    res.data = mem::Buffer();
    co_return;
  }
  res.data = std::move(resp.data);
  span.set_bytes(res.data.size());
}

sim::Task LibVread::close(std::uint64_t vfd) {
  ShmRequest req;
  req.op = static_cast<int>(VReadOp::kClose);
  req.vfd = vfd;
  ShmResponse resp;
  co_await call(std::move(req), resp);
  offsets_.erase(vfd);
}

sim::Task LibVread::update(sim::Name datanode_id) {
  ShmRequest req;
  req.op = static_cast<int>(VReadOp::kUpdate);
  req.datanode_id = datanode_id;
  ShmResponse resp;
  co_await call(std::move(req), resp);
}

sim::Task LibVread::vread_open(sim::Name block_name, sim::Name datanode_id,
                               std::uint64_t& vfd, Status& status) {
  co_await open(block_name, datanode_id, vfd, status);
  if (status.ok()) offsets_[vfd] = 0;
}

sim::Task LibVread::vread_read(std::uint64_t vfd, std::uint64_t len, mem::Buffer& out,
                               Status& status) {
  auto it = offsets_.find(vfd);
  if (it == offsets_.end()) {
    status = Status(StatusCode::kBadFd, "vread_read");
    co_return;
  }
  hdfs::ReadRequest rr;
  rr.vfd = vfd;
  rr.offset = it->second;
  rr.len = len;
  hdfs::ReadResult res;
  co_await read(rr, res);
  out = std::move(res.data);
  status = std::move(res.status);
  if (status.ok()) it->second += out.size();
}

sim::Task LibVread::vread_seek(std::uint64_t vfd, std::uint64_t offset, Status& status) {
  auto it = offsets_.find(vfd);
  if (it == offsets_.end()) {
    status = Status(StatusCode::kBadFd, "vread_seek");
    co_return;
  }
  it->second = offset;
  status = Status::Ok();
  co_return;
}

sim::Task LibVread::vread_close(std::uint64_t vfd, Status& status) {
  if (offsets_.count(vfd) == 0) {
    status = Status(StatusCode::kBadFd, "vread_close");
    co_return;
  }
  co_await close(vfd);
  status = Status::Ok();
}

}  // namespace vread::core
