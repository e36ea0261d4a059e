#include "hdfs/dfs_client.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "fault/fault.h"
#include "hdfs/wire.h"

namespace vread::hdfs {

using hw::CycleCategory;
using virt::TcpSocket;

sim::Task DfsClient::write_block(const std::string& path,
                                 std::vector<std::string> pipeline,
                                 const mem::Buffer& data) {
  const hw::CostModel& cm = vm_.host().costs();
  co_await nn_.rpc_from(vm_);
  BlockInfo& blk = nn_.add_block(path, pipeline);
  const std::uint64_t block_id = blk.id;
  const sim::Name block_name = blk.name;
  const std::vector<sim::Name> replicas = blk.locations;
  const std::uint64_t n = data.size();

  // Head-of-pipeline write: stream the block to the first datanode.
  TcpSocket conn;
  co_await net_.connect(vm_, pipeline.front(), DataNode::kPort, conn);
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(wire::Op::kWriteBlock));
  w.str(block_name);
  w.u64(n);
  w.u16(static_cast<std::uint16_t>(pipeline.size() - 1));
  for (std::size_t i = 1; i < pipeline.size(); ++i) w.str(pipeline[i]);
  co_await send_frame(conn, w.take(), CycleCategory::kClientApp);

  std::uint64_t sent = 0;
  while (sent < n) {
    const std::uint64_t chunk = std::min(DataNode::kPacketBytes, n - sent);
    // Client-side packet assembly + checksum generation.
    co_await vm_.run_vcpu(cm.per_byte(chunk, cm.client_hdfs_cycles_per_byte),
                          CycleCategory::kClientApp);
    co_await conn.send(data.slice(sent, chunk), CycleCategory::kClientApp);
    sent += chunk;
  }
  mem::Buffer ack;
  co_await recv_frame(conn, ack, CycleCategory::kClientApp);
  conn.close();

  co_await nn_.rpc_from(vm_);
  nn_.complete_block(path, block_id, n);
  // vRead_update at the end of the standard append path (paper §4): the
  // daemon's mount of every replica holder is refreshed.
  if (reader_ != nullptr) {
    for (const sim::Name dn : replicas) co_await reader_->update(dn);
  }
}

sim::Task DfsClient::write_file(const std::string& path, const mem::Buffer& data,
                                Placement placement, std::uint64_t block_size) {
  std::unique_ptr<DfsOutputStream> out;
  co_await create(path, std::move(placement), block_size, out);
  co_await out->write(data);
  co_await out->close();
}

sim::Task DfsClient::create(const std::string& path, Placement placement,
                            std::uint64_t block_size,
                            std::unique_ptr<DfsOutputStream>& out) {
  co_await nn_.rpc_from(vm_);
  nn_.create_file(path, block_size);
  out = std::make_unique<DfsOutputStream>(*this, path, std::move(placement), block_size);
}

DfsClient::Placement DfsClient::default_placement(int replication) {
  DfsClient* self = this;
  return [self, replication](std::uint64_t index) {
    const std::vector<std::string>& dns = self->nn_.datanodes();
    if (dns.empty()) throw HdfsError("no datanodes registered");
    std::vector<std::string> pipeline;
    // First replica: a datanode on this client's physical host if any.
    std::size_t first = index % dns.size();
    for (std::size_t i = 0; i < dns.size(); ++i) {
      virt::Vm* dn_vm = self->net_.find_vm(dns[i]);
      if (dn_vm != nullptr && &dn_vm->host() == &self->vm_.host()) {
        first = i;
        break;
      }
    }
    pipeline.push_back(dns[first]);
    auto in_pipeline = [&pipeline](const std::string& cand) {
      for (const std::string& p : pipeline) {
        if (p == cand) return true;
      }
      return false;
    };
    // Rack-aware placement (HDFS default policy) once the namenode knows
    // rack ids: 2nd replica off the 1st's rack, 3rd replica alongside the
    // 2nd. Fault tolerance across racks, write pipeline mostly in one.
    if (self->nn_.rack_aware() && replication >= 2) {
      const std::uint32_t rack1 = self->nn_.rack_of(dns[first]);
      for (std::size_t i = 1; pipeline.size() < 2 && i <= dns.size(); ++i) {
        const std::string& cand = dns[(first + i + index) % dns.size()];
        if (!in_pipeline(cand) && self->nn_.rack_of(cand) != rack1) {
          pipeline.push_back(cand);
        }
      }
      if (pipeline.size() == 2 && replication >= 3) {
        const std::uint32_t rack2 = self->nn_.rack_of(pipeline[1]);
        for (std::size_t i = 1; pipeline.size() < 3 && i <= dns.size(); ++i) {
          const std::string& cand = dns[(first + i + index) % dns.size()];
          if (!in_pipeline(cand) && self->nn_.rack_of(cand) == rack2) {
            pipeline.push_back(cand);
          }
        }
      }
    }
    // Remaining replicas rotate over the other datanodes (also the whole
    // policy when racks are unknown — the pre-topology behavior).
    for (std::size_t i = 1; pipeline.size() < static_cast<std::size_t>(replication) &&
                            i <= dns.size();
         ++i) {
      const std::string& cand = dns[(first + i + index) % dns.size()];
      if (!in_pipeline(cand)) pipeline.push_back(cand);
    }
    return pipeline;
  };
}

sim::Task DfsOutputStream::write(const mem::Buffer& data) {
  if (closed_) throw HdfsError("write after close: " + path_);
  pending_.append(data);
  total_ += data.size();
  while (pending_.size() >= block_size_) {
    co_await client_.write_block(path_, placement_(block_index_++),
                                 pending_.slice(0, block_size_));
    pending_ = pending_.slice(block_size_, pending_.size() - block_size_);
  }
}

sim::Task DfsOutputStream::close() {
  if (closed_) co_return;
  closed_ = true;
  if (!pending_.empty()) {
    co_await client_.write_block(path_, placement_(block_index_++), pending_);
    pending_ = mem::Buffer();
  }
}

sim::Task DfsClient::open(const std::string& path, std::unique_ptr<DfsInputStream>& out) {
  co_await nn_.rpc_from(vm_);
  std::vector<BlockInfo> blocks = nn_.get_block_locations(path, 0, nn_.file_size(path));
  out = std::make_unique<DfsInputStream>(*this, path, std::move(blocks));
}

sim::Task DfsClient::remove(const std::string& path) {
  co_await nn_.rpc_from(vm_);
  // Collect replica holders before the metadata disappears.
  std::vector<sim::Name> holders;
  for (const BlockInfo& b : nn_.all_blocks(path)) {
    holders.insert(holders.end(), b.locations.begin(), b.locations.end());
  }
  nn_.remove_file(path);
  if (reader_ != nullptr) {
    for (const sim::Name dn : holders) co_await reader_->update(dn);
  }
}

cluster::PathTier DfsClient::replica_tier(sim::Name dn) {
  virt::Vm* dn_vm = net_.find_vm(dn);
  if (dn_vm == nullptr) return cluster::PathTier::kCrossRack;
  if (&dn_vm->host() == &vm_.host()) return cluster::PathTier::kSameHost;
  hw::Lan& lan = vm_.host().lan();
  return lan.rack_of(dn_vm->host().lan_id()) == lan.rack_of(vm_.host().lan_id())
             ? cluster::PathTier::kSameRack
             : cluster::PathTier::kCrossRack;
}

sim::Name DfsClient::choose_replica(const BlockInfo& blk) {
  if (selector_ == nullptr) {
    for (const sim::Name dn : blk.locations) {
      virt::Vm* dn_vm = net_.find_vm(dn);
      if (dn_vm != nullptr && &dn_vm->host() == &vm_.host()) return dn;
    }
    return blk.locations.front();
  }
  std::vector<cluster::ReplicaSelector::Candidate> cands;
  cands.reserve(blk.locations.size());
  for (const sim::Name dn : blk.locations) {
    cands.push_back({&dn.str(), replica_tier(dn)});
  }
  const std::size_t pick = selector_->choose(vm_.host().sim().now(), cands);
  if (selector_->last_avoided_overload()) route_overload_avoided_.inc();
  switch (cands[pick].tier) {
    case cluster::PathTier::kSameHost:
      route_same_host_.inc();
      break;
    case cluster::PathTier::kSameRack:
      route_same_rack_.inc();
      break;
    case cluster::PathTier::kCrossRack:
      route_cross_rack_.inc();
      break;
  }
  return blk.locations[pick];
}

void DfsClient::route_feedback(sim::Name dn, std::uint64_t bytes) {
  if (selector_ == nullptr) return;
  if (replica_tier(dn) == cluster::PathTier::kCrossRack) {
    route_cross_rack_bytes_.inc(bytes);
  }
  if (load_probe_) {
    selector_->report(vm_.host().sim().now(), dn, load_probe_(dn));
    route_feedback_.inc();
  }
}

void DfsClient::note_overload(const Status& st, sim::Name dn) {
  if (st.code() != StatusCode::kOverloaded) return;
  vread_overloaded_.inc();
  if (selector_ == nullptr) return;
  selector_->report_overload(vm_.host().sim().now(), dn);
  route_feedback_.inc();
}

void DfsClient::update_vfd(sim::Name blk, std::optional<std::uint64_t> vfd) {
  if (vfd.has_value()) {
    vfd_hash_.emplace(blk, *vfd);
  } else {
    vfd_hash_.erase(blk);
  }
  vfd_cache_g_.set(static_cast<std::int64_t>(vfd_hash_.size()));
}

bool DfsClient::short_circuits(const BlockInfo& blk) const {
  if (!short_circuit_) return false;
  for (const sim::Name loc : blk.locations) {
    if (loc == vm_.name()) return true;
  }
  return false;
}

sim::Task DfsClient::lean_processing(std::uint64_t bytes, trace::Ctx ctx) {
  const hw::CostModel& cm = vm_.host().costs();
  return vm_.run_vcpu(cm.per_byte(bytes, cm.client_hdfs_vread_cycles_per_byte),
                      CycleCategory::kClientApp, ctx);
}

sim::Task DfsClient::vread_leg(std::uint64_t vfd, std::uint64_t off, std::uint64_t len,
                               const ReadRequest& opts, trace::Ctx ctx, mem::Buffer& out,
                               Status& st) {
  // Struct-form BlockReader read: the per-read options (tenant,
  // coalesce/readahead hints, hedge cancel flag) ride along untouched; only
  // the block coordinates are ours to fill in.
  ReadRequest rr = opts;
  rr.vfd = vfd;
  rr.offset = off;
  rr.len = len;
  rr.ctx = ctx;
  ReadResult rres;
  co_await reader_->read(rr, rres);
  st = std::move(rres.status);
  out = std::move(rres.data);
  if (st.ok()) co_await lean_processing(out.size(), ctx);
}

sim::Task DfsClient::request_block(TcpSocket conn, const BlockInfo& blk,
                                   const std::string& dn, std::uint64_t offset,
                                   std::uint64_t len, trace::Ctx ctx, std::uint64_t& actual) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(wire::Op::kReadBlock));
  w.str(blk.name);
  w.u64(offset);
  w.u64(len);
  co_await send_frame(conn, w.take(), CycleCategory::kClientApp, ctx);
  mem::Buffer resp;
  co_await recv_frame(conn, resp, CycleCategory::kClientApp, ctx);
  wire::Reader r(resp);
  const std::int64_t n = r.i64();
  if (n < 0) throw HdfsError("datanode " + dn + " missing " + blk.name.str());
  actual = static_cast<std::uint64_t>(n);
}

sim::Task DfsClient::recv_block_bytes(TcpSocket conn, std::uint64_t n, mem::Buffer& out,
                                      trace::Ctx ctx) {
  co_await conn.recv_exact(n, out, CycleCategory::kClientApp, ctx);
  // Client-side stream processing + checksum verification.
  const hw::CostModel& cm = vm_.host().costs();
  co_await vm_.run_vcpu(cm.per_byte(n, cm.client_hdfs_cycles_per_byte),
                        CycleCategory::kClientApp, ctx);
}

sim::Task DfsClient::fetch_block_range(const BlockInfo& blk,
                                       const std::string& datanode_id,
                                       std::uint64_t offset, std::uint64_t len,
                                       mem::Buffer& out, trace::Ctx ctx) {
  // Reuse (or establish) the cached per-datanode connection; requests on
  // it serialize. The mutex is created synchronously (no suspension between
  // the check and the store) so concurrent fan-out legs arriving before the
  // first connect completes all contend on the SAME semaphore — and the
  // connect itself happens under it, so a second leg can never clobber the
  // half-established socket.
  CachedConn& cc = pread_conns_[datanode_id];
  if (!cc.mutex) cc.mutex = std::make_unique<sim::Semaphore>(vm_.host().sim(), 1);
  co_await cc.mutex->acquire();
  struct Unlock {  // on every exit, a throw included
    sim::Semaphore& mutex;
    ~Unlock() { mutex.release(); }
  } unlock{*cc.mutex};
  if (!cc.sock) co_await net_.connect(vm_, datanode_id, DataNode::kPort, cc.sock);
  std::uint64_t actual = 0;
  co_await request_block(cc.sock, blk, datanode_id, offset, len, ctx, actual);
  co_await recv_block_bytes(cc.sock, actual, out, ctx);
}

metrics::Histogram& DfsClient::hedge_route_latency(sim::Name dn) {
  auto it = hedge_lat_.find(dn);
  if (it != hedge_lat_.end()) return *it->second;
  metrics::Histogram& h = metrics_.histogram(
      "vread_hedge_route_latency_ns", {{"dn", dn}, {"vm", vm_.name()}},
      "Hedged block-read completion latency per primary route (feeds the delay)");
  hedge_lat_.emplace(dn, &h);
  return h;
}

sim::SimTime DfsClient::hedge_delay(sim::Name dn) {
  const metrics::Histogram& h = hedge_route_latency(dn);
  if (h.count() < hedge_.warmup) return hedge_.max_delay;
  const auto q = static_cast<sim::SimTime>(h.percentile(hedge_.quantile));
  return std::clamp(q, hedge_.min_delay, hedge_.max_delay);
}

sim::Name DfsClient::hedge_replica(const BlockInfo& blk, sim::Name primary) {
  // Cheapest-tier non-primary location, ties broken by pipeline order.
  // Deliberately selector-free: consulting ReplicaSelector::choose() here
  // would advance its rng and counters, perturbing primary routing.
  sim::Name best;
  int best_tier = std::numeric_limits<int>::max();
  for (const sim::Name loc : blk.locations) {
    if (loc == primary) continue;
    const int t = static_cast<int>(replica_tier(loc));
    if (t < best_tier) {
      best_tier = t;
      best = loc;
    }
  }
  return best;
}

DfsInputStream::DfsInputStream(DfsClient& client, std::string path,
                               std::vector<BlockInfo> blocks)
    : client_(client), path_(std::move(path)), blocks_(std::move(blocks)) {
  for (const BlockInfo& b : blocks_) size_ += b.size;
}

const BlockInfo* DfsInputStream::block_at(std::uint64_t pos) const {
  for (const BlockInfo& b : blocks_) {
    if (pos >= b.offset_in_file && pos < b.offset_in_file + b.size) return &b;
  }
  return nullptr;
}

void DfsInputStream::seek(std::uint64_t pos) {
  if (pos != pos_) drop_stream();
  pos_ = pos;
}

void DfsInputStream::drop_stream() {
  if (stream_.sock) {
    stream_.sock.close();
    stream_ = BlockStream{};
  }
}

sim::Task DfsInputStream::read(const ReadRequest& req, ReadResult& res) {
  res.data = mem::Buffer();
  res.status = Status::Ok();
  if (req.offset == ReadRequest::kCurrentPos) {
    co_await read_sequential(req, res);
  } else {
    co_await read_positional(req, res);
  }
}

sim::Task DfsInputStream::read_sequential(const ReadRequest& req, ReadResult& res) {
  while (res.data.size() < req.len && pos_ < size_) {
    const BlockInfo* blk = block_at(pos_);
    if (blk == nullptr) break;
    const std::uint64_t off = pos_ - blk->offset_in_file;
    const std::uint64_t n = std::min(req.len - res.data.size(), blk->size - off);
    mem::Buffer part;
    co_await read_block_range(*blk, off, n, part, /*sequential=*/true, req);
    pos_ += part.size();
    res.data.append(part);
    if (part.size() < n) break;
  }
}

sim::Task DfsInputStream::read_positional(const ReadRequest& req, ReadResult& res) {
  // Algorithm 2: collect the blocks overlapping the range, then read them
  // (vRead descriptor if available, fetchBlocks otherwise). Reads of
  // distinct blocks are independent, so with a fan-out > 1 they are
  // issued concurrently and reassembled in block order.
  const std::uint64_t position = req.offset;
  const std::uint64_t len = req.len;
  const std::size_t fanout = client_.pread_parallelism_;
  co_await client_.nn_.rpc_from(client_.vm());
  std::vector<BlockInfo> range =
      client_.nn_.get_block_locations(path_, position, len);
  struct Part {
    const BlockInfo* blk;  // into `range`, which outlives every part
    std::uint64_t off;
    std::uint64_t n;
    mem::Buffer buf;
    std::exception_ptr err;
  };
  std::vector<Part> parts;
  std::uint64_t remaining = len;
  std::uint64_t pos = position;
  for (const BlockInfo& blk : range) {
    if (remaining == 0) break;
    const std::uint64_t start = pos - blk.offset_in_file;
    const std::uint64_t bytes_to_read = std::min(remaining, blk.size - start);
    parts.push_back(Part{&blk, start, bytes_to_read, {}, nullptr});
    remaining -= bytes_to_read;
    pos += bytes_to_read;
  }

  if (parts.size() <= 1 || fanout <= 1) {
    // The strictly sequential loop: each part runs inline, and the first
    // failure ends it.
    for (Part& p : parts) {
      co_await read_part(*p.blk, p.off, p.n, req, p.buf, p.err, nullptr, nullptr);
      if (p.err) break;
    }
  } else {
    // Fan-out: bounded by the gate, joined by the latch, results landing
    // in per-part slots so reassembly is in order regardless of completion
    // order. Spawn order is deterministic and so are all wakeups (FIFO).
    sim::Simulation& sim = client_.vm().host().sim();
    sim::Semaphore gate(sim, fanout);
    sim::Latch latch(sim, parts.size());
    for (Part& p : parts) {
      co_await gate.acquire();
      // `range`, `req` (our caller's) and `parts` all outlive the latch.
      sim.spawn(read_part(*p.blk, p.off, p.n, req, p.buf, p.err, &gate, &latch));
    }
    co_await latch.wait();
  }
  // A failed part never clobbers a sibling's slot, and the first failure
  // *in block order* — not completion order — is the one rethrown, so the
  // surfaced error is deterministic.
  for (const Part& p : parts) {
    if (p.err) std::rethrow_exception(p.err);
  }
  for (Part& p : parts) res.data.append(p.buf);
}

sim::Task DfsInputStream::read_part(const BlockInfo& blk, std::uint64_t off,
                                    std::uint64_t len, const ReadRequest& opts,
                                    mem::Buffer& out, std::exception_ptr& err,
                                    sim::Semaphore* gate, sim::Latch* latch) {
  for (int attempt = 1; attempt <= kPreadPartAttempts; ++attempt) {
    // Reset both slots before every attempt: a retry after a partial
    // failure must never deliver bytes twice or leave a stale error.
    out = mem::Buffer();
    err = nullptr;
    try {
      co_await read_block_range(blk, off, len, out, /*sequential=*/false, opts);
      break;
    } catch (...) {
      err = std::current_exception();
    }
  }
  if (gate != nullptr) gate->release();
  if (latch != nullptr) latch->count_down();
}

sim::Task DfsInputStream::read_block_range_impl(const BlockInfo& blk, std::uint64_t off,
                                                std::uint64_t len, mem::Buffer& out,
                                                bool sequential, const ReadRequest& opts,
                                                sim::Name dn, bool* cancelled) {
  DfsClient& c = client_;
  auto& tr = trace::tracer();
  const int app_tid = static_cast<int>(c.vm().vcpu_tid());
  // Root span of this read's trace tree: read1 = sequential (Algorithm 1),
  // read2 = positional (Algorithm 2). Every downstream span — guest, shm
  // ring, daemon, datanode, wire — hangs off this context.
  trace::Scope root = trace::Scope::read(sequential ? "read1" : "read2", app_tid);
  const trace::Ctx ctx = root.ctx();

  // HDFS Short-Circuit Local Read: replica in this very VM -> read the
  // block file straight off the local filesystem. A replica registered
  // here whose file is missing falls through to sockets.
  if (c.short_circuits(blk)) {
    auto ino = c.vm().fs().lookup(DataNode::block_path(blk.name));
    if (ino.has_value()) {
      co_await c.vm().fs_read(*ino, off, len, out, CycleCategory::kClientApp,
                              /*copy_to_app=*/true, ctx);
      co_await c.lean_processing(out.size(), ctx);
      c.reads_short_circuit_.inc();
      root.set_bytes(out.size());
      co_return;
    }
  }

  BlockReader* reader = c.reader_;
  std::uint64_t vfd = 0;
  bool have_vfd = false;
  bool vread_failed = false;

  if (reader != nullptr) {
    auto it = c.vfd_hash_.find(blk.name);
    if (it != c.vfd_hash_.end()) {
      // Cached descriptors stay in use even during a cooldown — only new
      // probes are suppressed.
      c.vfd_hits_.inc();
      vfd = it->second;
      have_vfd = true;
    } else {
      c.vfd_misses_.inc();
      if (c.vread_probe_allowed()) {
        Status st;
        co_await reader->open(blk.name, dn, vfd, st, ctx);
        if (st.ok()) {
          c.update_vfd(blk.name, vfd);
          have_vfd = true;
        } else {
          // No descriptor obtained (registry miss, stale mount, transport
          // trouble after the library's retries): degrade, and stop probing
          // until the cooldown expires.
          c.note_overload(st, dn);
          vread_failed = true;
          c.enter_vread_cooldown();
        }
      } else {
        c.vread_suppressed_.inc();
      }
    }
  }

  if (have_vfd) {
    Status st;
    co_await c.vread_leg(vfd, off, len, opts, ctx, out, st);
    if (cancelled != nullptr && st.code() == StatusCode::kCancelled) {
      // Losing hedge leg: the daemon aborted on the cancel doorbell. The
      // descriptor is perfectly healthy — keep it cached, start no
      // cooldown, skip the socket fallback; the winner served the bytes.
      *cancelled = true;
      co_return;
    }
    c.note_overload(st, dn);
    if (!st.ok() || off + out.size() >= blk.size) {
      // Block fully consumed (Algorithm 1's vRead_close + hash removal), or
      // the shortcut failed mid-flight: drop the descriptor.
      co_await reader->close(vfd);
      c.update_vfd(blk.name, std::nullopt);
    }
    if (st.ok()) {
      c.reads_vread_.inc();
      // Completion feedback: the serving daemon's load signal rides the
      // completion back to the selector (docs/TOPOLOGY.md §feedback).
      c.route_feedback(dn, out.size());
      root.set_bytes(out.size());
      co_return;
    }
    // Stale descriptors (daemon restarted, snapshot moved) re-open on the
    // next read with no cooldown; anything else starts one.
    vread_failed = true;
    if (!st.is_stale()) c.enter_vread_cooldown();
  }
  if (vread_failed) {
    c.vread_fallback_reads_.inc();
    tr.instant(ctx, trace::SpanKind::kFallback, "vread->socket", app_tid);
  }

  // Original HDFS method, with replica failover: try the preferred
  // (co-located) replica first, then the others.
  trace::Scope sock = trace::Scope::open(ctx, trace::SpanKind::kStage, "socket-read", app_tid);
  const trace::Ctx sctx = sock.ctx();
  std::vector<sim::Name> candidates{dn};
  for (const sim::Name loc : blk.locations) {
    if (loc != dn) candidates.push_back(loc);
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    try {
      // A failed candidate may have partially filled `out` before
      // throwing; start every attempt from an empty buffer so a failover
      // can never deliver duplicate bytes.
      out = mem::Buffer();
      if (sequential) {
        co_await read_from_stream(blk, candidates[i], off, len, out, sctx);
      } else {
        co_await c.fetch_block_range(blk, candidates[i], off, len, out, sctx);
      }
      c.reads_socket_.inc();
      sock.set_bytes(out.size());
      root.set_bytes(out.size());
      co_return;
    } catch (const HdfsError&) {
      drop_stream();
      if (i + 1 == candidates.size()) {
        root.set_bytes(out.size());
        throw;
      }
      tr.instant(sctx, trace::SpanKind::kRetry, "replica-failover", app_tid);
    }
  }
}

sim::Task DfsInputStream::read_block_range(const BlockInfo& blk, std::uint64_t off,
                                           std::uint64_t len, mem::Buffer& out,
                                           bool sequential, const ReadRequest& opts) {
  DfsClient& c = client_;
  const sim::Name primary = c.choose_replica(blk);
  // Hedging needs the vRead shortcut and another location. A replica in
  // this very VM short-circuits to a local file read — nothing to hedge
  // against.
  const sim::Name alt = c.hedge_.enabled && c.reader_ != nullptr && !c.short_circuits(blk)
                            ? c.hedge_replica(blk, primary)
                            : sim::Name();
  if (alt.empty() || alt == primary) {
    co_await read_block_range_impl(blk, off, len, out, sequential, opts, primary, nullptr);
    co_return;
  }

  sim::Simulation& sim = c.vm().host().sim();
  auto race = std::make_shared<HedgeRace>(sim, blk);
  ReadRequest legopts = opts;
  legopts.cancel = std::shared_ptr<const bool>(race, &race->cancel);
  const sim::SimTime t0 = sim.now();
  // hedge-both-slow: force the hedge to fire immediately, so both legs
  // run the full read concurrently (the soak's worst-case overlap arm).
  const sim::SimTime delay =
      fault::registry().should_fire(fault::points::kHedgeBothSlow)
          ? 0
          : c.hedge_delay(primary);
  if (!hedge_drain_) hedge_drain_ = std::make_unique<sim::Semaphore>(sim, 0);
  hedge_inflight_ += 2;  // the primary leg and the timer
  sim.spawn(hedge_primary_leg(off, len, legopts, primary, race));
  sim.spawn(hedge_timer(off, len, legopts, alt, delay, race));

  for (;;) {
    co_await race->sem.acquire();
    if (race->finished[0] && race->ok[0]) {
      race->winner = 0;  // ties prefer the primary (checked first)
      break;
    }
    if (race->finished[1] && race->ok[1]) {
      race->winner = 1;
      break;
    }
    const bool hedge_over =
        race->hedge_state == HedgeRace::kSkipped ||
        (race->hedge_state == HedgeRace::kLaunched && race->finished[1]);
    if (race->finished[0] && hedge_over) break;  // every leg failed
  }
  // Ring the doorbell either way: a still-running loser must stop
  // delivering (and charging) bytes nobody will use.
  race->cancel = true;

  if (race->winner < 0) {
    // Total failure: surface the primary's error — its failover list was
    // the full location set, so this matches the unhedged failure exactly.
    if (race->err[0]) std::rethrow_exception(race->err[0]);
    throw HdfsError("hedged read of " + blk.name.str() + " failed on all legs");
  }

  out = std::move(race->buf[race->winner]);
  c.hedge_route_latency(primary).observe(static_cast<std::uint64_t>(sim.now() - t0));
  if (race->winner == 1) {
    c.hedge_wins_.inc();
    c.reads_vread_.inc();
    c.route_feedback(alt, out.size());
  }
  // A loser that had ALREADY completed normally when the winner was
  // declared delivered bytes nobody uses; a loser still running counts
  // its own waste when it finishes (end_hedge_task).
  const int loser = 1 - race->winner;
  if (race->finished[loser] && race->ok[loser]) {
    c.hedge_wasted_bytes_.inc(race->buf[loser].size());
  }
}

void DfsInputStream::end_hedge_task(HedgeRace& race, int slot) {
  if (slot >= 0) {
    race.finished[slot] = true;
    if (race.winner >= 0 && race.winner != slot && race.ok[slot]) {
      client_.hedge_wasted_bytes_.inc(race.buf[slot].size());
    }
  }
  race.sem.release();
  --hedge_inflight_;
  hedge_drain_->release();
}

sim::Task DfsInputStream::hedge_primary_leg(std::uint64_t off, std::uint64_t len,
                                            ReadRequest opts, sim::Name dn,
                                            HedgeRacePtr race) {
  bool cancelled = false;
  try {
    // Forced positional: a racing leg must not share the sequential
    // stream_ cursor with its sibling.
    co_await read_block_range_impl(race->blk, off, len, race->buf[0],
                                   /*sequential=*/false, opts, dn, &cancelled);
    race->ok[0] = !cancelled;
  } catch (...) {
    race->err[0] = std::current_exception();
  }
  end_hedge_task(*race, 0);
}

sim::Task DfsInputStream::hedge_second_leg(std::uint64_t off, std::uint64_t len,
                                           ReadRequest opts, sim::Name dn,
                                           HedgeRacePtr race) {
  DfsClient& c = client_;
  opts.hedge = true;
  // Private descriptor, deliberately NOT the shared vfd hash: the hash is
  // keyed by block name alone and the primary's entry points at the other
  // replica. vRead-only — if this leg cannot open, the primary's full
  // socket failover is the safety net, so overall failure semantics stay
  // exactly the unhedged ones.
  trace::Scope root = trace::Scope::read("hedge-leg", c.vm().vcpu_tid());
  std::uint64_t vfd = 0;
  Status st;
  co_await c.reader_->open(race->blk.name, dn, vfd, st, root.ctx());
  if (st.ok()) {
    co_await c.vread_leg(vfd, off, len, opts, root.ctx(), race->buf[1], st);
    race->ok[1] = st.ok();
    co_await c.reader_->close(vfd);
  }
  if (race->ok[1]) root.set_bytes(race->buf[1].size());
  end_hedge_task(*race, 1);
}

sim::Task DfsInputStream::hedge_timer(std::uint64_t off, std::uint64_t len,
                                      ReadRequest opts, sim::Name dn, sim::SimTime delay,
                                      HedgeRacePtr race) {
  DfsClient& c = client_;
  co_await c.vm().host().sim().delay(delay);
  if (race->finished[0] || race->cancel ||
      fault::registry().should_fire(fault::points::kHedgeLegLost)) {
    // Either the primary already finished (the common, hedge-averted
    // case) or the injected hedge-leg-lost fault ate the second request.
    race->hedge_state = HedgeRace::kSkipped;
    if (race->finished[0]) c.hedge_averted_.inc();
  } else {
    race->hedge_state = HedgeRace::kLaunched;
    c.hedge_launched_.inc();
    ++hedge_inflight_;
    c.vm().host().sim().spawn(hedge_second_leg(off, len, opts, dn, race));
  }
  end_hedge_task(*race, -1);
}

sim::Task DfsInputStream::read_from_stream(const BlockInfo& blk, const std::string& dn,
                                           std::uint64_t off, std::uint64_t len,
                                           mem::Buffer& out, trace::Ctx ctx) {
  DfsClient& c = client_;
  // (Re)open the block stream when absent or not positioned at `off`.
  if (!stream_.sock || stream_.block_id != blk.id || stream_.next_offset != off) {
    drop_stream();
    TcpSocket conn;
    co_await c.net_.connect(c.vm(), dn, DataNode::kPort, conn);
    std::uint64_t actual = 0;  // the datanode streams the rest of the block
    co_await c.request_block(conn, blk, dn, off, blk.size - off, ctx, actual);
    stream_.sock = conn;
    stream_.block_id = blk.id;
    stream_.next_offset = off;
    stream_.end_offset = off + actual;
  }
  const std::uint64_t n = std::min(len, stream_.end_offset - stream_.next_offset);
  co_await c.recv_block_bytes(stream_.sock, n, out, ctx);
  stream_.next_offset += n;
  if (stream_.next_offset >= stream_.end_offset) drop_stream();
}

sim::Task DfsInputStream::close() {
  // Drain hedge legs still racing: a losing leg's coroutine frame points
  // back into this stream and must not outlive it.
  while (hedge_inflight_ > 0) co_await hedge_drain_->acquire();
  drop_stream();
  DfsClient& c = client_;
  if (c.reader_ != nullptr) {
    // Release any descriptors still cached for this file's blocks. The
    // entry comes out of the hash BEFORE the suspension: a concurrent
    // stream closing the same file must neither double-close the vfd nor
    // invalidate an iterator we still hold.
    for (const BlockInfo& blk : blocks_) {
      auto it = c.vfd_hash_.find(blk.name);
      if (it != c.vfd_hash_.end()) {
        const std::uint64_t vfd = it->second;
        c.update_vfd(blk.name, std::nullopt);
        co_await c.reader_->close(vfd);
      }
    }
  }
}

}  // namespace vread::hdfs
