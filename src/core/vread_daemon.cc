#include "core/vread_daemon.h"

#include <stdexcept>

#include "fault/fault.h"

namespace vread::core {

using hw::CycleCategory;
using virt::ShmRequest;
using virt::ShmResponse;

namespace {
// Host-page-cache object key for (image, inode): the daemon reads guest
// filesystems through the host's file-system cache.
std::uint64_t cache_key(const fs::DiskImage& image, std::uint32_t inode) {
  return (image.id() << 32) | inode;
}
// RDMA payloads are written by the sender's NIC straight into the
// receiver's registered ring memory: the daemon's ring copy is skipped.
bool lands_in_ring(Transport t) { return t == Transport::kRdma; }
// A reply's `bytes` crossing the LAN from `src` to `dst`, traced on the
// wire track.
sim::Task cross_wire(hw::Lan& lan, hw::HostId src, hw::HostId dst, std::uint64_t bytes,
                     Transport transport, trace::Ctx ctx) {
  const char* wire_name = lands_in_ring(transport) ? "rdma-wire" : "vread-net-wire";
  const trace::Scope wire =
      trace::Scope::after(ctx, trace::SpanKind::kTransport, wire_name, lan.wire_track(), bytes);
  co_await lan.transfer(src, dst, bytes);
}
// Peer-cache holders tried per miss before falling back to disk / the
// owner stream; each attempt pays a control hop.
constexpr std::size_t kPeerFetchAttempts = 2;
// Largest range fetched from a peer in one transfer. Ranges above this
// skip the tier (the stream chopper keeps daemon reads at 256 KiB, so it
// never truncates).
constexpr std::uint64_t kPeerMaxFetchBytes = 256 * 1024;
}  // namespace

Status DaemonConfig::Validate() const {
  // Every rejection names the offending field and the value it held
  // ("DaemonConfig.<field> = <value>: why"), so a caller that only sees
  // the Status can fix its tuning without a debugger.
  auto bad = [](const std::string& field, const std::string& value,
                const std::string& why) {
    return Status(StatusCode::kConfig,
                  "DaemonConfig." + field + " = " + value + ": " + why);
  };
  if (workers == 0) {
    return bad("workers", "0",
               "must be >= 1 (a daemon with no worker threads can never serve)");
  }
  if (shm_max_outstanding == 0) {
    return bad("shm_max_outstanding", "0",
               "must be >= 1 (a zero slot budget deadlocks every call)");
  }
  // One shm slot (hw::CostModel::shm_slot_size, paper §4) is the smallest
  // payload unit the ring moves; a cache smaller than that can never hold
  // a useful entry.
  constexpr std::uint64_t kShmSlotBytes = 4 * 1024;
  if (cache_bytes > 0 && cache_bytes < kShmSlotBytes) {
    return bad("cache_bytes", std::to_string(cache_bytes),
               "smaller than one shm slot (" + std::to_string(kShmSlotBytes) +
                   " bytes) can never hold an entry; use 0 to disable the cache");
  }
  if (coalesce.enabled && coalesce.batch_max > shm_max_outstanding) {
    return bad("coalesce.batch_max", std::to_string(coalesce.batch_max),
               "exceeds shm_max_outstanding (" + std::to_string(shm_max_outstanding) +
                   "): the ring can never put that many fills in flight, so the "
                   "batch window would only ever seal on its timer");
  }
  if (qos.enabled) {
    for (const auto& [tenant, w] : qos.weights) {
      if (w <= 0.0) {
        return bad("qos.weights[" + tenant + "]", std::to_string(w),
                   "must be > 0 (zero-weight tenants starve)");
      }
    }
    for (const auto& [tenant, n] : qos.shm_outstanding) {
      if (n == 0) {
        return bad("qos.shm_outstanding[" + tenant + "]", "0",
                   "must be >= 1 (a zero slot budget deadlocks every call of that "
                   "tenant)");
      }
    }
  }
  if (disk.enabled) {
    if (disk.gc_period <= 0) {
      return bad("disk.gc_period", std::to_string(disk.gc_period),
                 "must be > 0 when the variability model is enabled");
    }
    if (disk.gc_duration < 0 || disk.gc_duration >= disk.gc_period) {
      return bad("disk.gc_duration", std::to_string(disk.gc_duration),
                 "must lie in [0, gc_period): a GC window as long as its "
                 "period would block the device forever");
    }
    if (disk.channels == 0) {
      return bad("disk.channels", "0",
                 "must be >= 1 (a device with no channels serves nothing)");
    }
    if (disk.write_stall < 0) {
      return bad("disk.write_stall", std::to_string(disk.write_stall), "must be >= 0");
    }
  }
  if (peer_cache.enabled) {
    if (cache_bytes == 0) {
      return bad("peer_cache.enabled", "true",
                 "requires a live block cache (cache_bytes > 0): the tier "
                 "serves fetches out of — and fills — the local cache");
    }
    if (direct_read) {
      return bad("peer_cache.enabled", "true",
                 "conflicts with direct_read, whose contract is that every "
                 "byte comes off the device");
    }
  }
  return Status::Ok();
}

VReadDaemon::VReadDaemon(virt::Host& host, DaemonConfig config)
    : host_(host),
      name_(host.name()),
      config_(config),
      cache_(config.cache_bytes, host.name()),
      control_(std::make_unique<hw::WorkerThread>(host.sim(), host.cpu(),
                                                  "vread-ctl", host.name())),
      opens_(metrics_.counter("vread_daemon_opens_total", {{"host", host.name()}},
                              "Block descriptors opened")),
      reads_(metrics_.counter("vread_daemon_reads_total", {{"host", host.name()}},
                              "Local block reads served")),
      bytes_read_(metrics_.counter("vread_daemon_bytes_read_total",
                                   {{"host", host.name()}},
                                   "Payload bytes read from local images")),
      refreshes_(metrics_.counter("vread_daemon_mount_refreshes_total",
                                  {{"host", host.name()}},
                                  "Loop-mount dentry/inode refreshes")),
      failed_opens_(metrics_.counter("vread_daemon_failed_opens_total",
                                     {{"host", host.name()}},
                                     "Opens answered with an error status")),
      remote_reads_(metrics_.counter("vread_daemon_remote_reads_total",
                                     {{"host", host.name()}},
                                     "Daemon-to-daemon streamed reads completed")),
      restarts_(metrics_.counter("vread_daemon_restarts_total", {{"host", host.name()}},
                                 "Crash-recovery restarts (descriptor table lost)")),
      remote_retries_(metrics_.counter("vread_daemon_remote_retries_total",
                                       {{"host", host.name()}},
                                       "Peer-down retries with backoff")),
      rdma_failovers_(metrics_.counter("vread_daemon_rdma_failovers_total",
                                       {{"host", host.name()}},
                                       "RDMA operations failed over to TCP")),
      refresh_failures_(metrics_.counter("vread_daemon_refresh_failures_total",
                                         {{"host", host.name()}},
                                         "Mount refreshes that left the mount stale")),
      mount_lookup_hits_(metrics_.counter("vread_daemon_mount_lookup_hits_total",
                                          {{"host", host.name()}},
                                          "Block lookups served by the mounted dentry cache")),
      mount_lookup_misses_(metrics_.counter("vread_daemon_mount_lookup_misses_total",
                                            {{"host", host.name()}},
                                            "Block lookups missing in the mounted dentry cache")),
      peer_lookups_(metrics_.counter("vread_peercache_lookups_total",
                                     {{"host", host.name()}},
                                     "Owner-directory lookups on local cache miss")),
      peer_dir_hits_(metrics_.counter("vread_peercache_dir_hits_total",
                                      {{"host", host.name()}},
                                      "Directory lookups returning >= 1 live holder")),
      peer_dir_misses_(metrics_.counter("vread_peercache_dir_misses_total",
                                        {{"host", host.name()}},
                                        "Directory lookups with no usable holder")),
      peer_fetches_(metrics_.counter("vread_peercache_fetches_total",
                                     {{"host", host.name()}},
                                     "Ranges served from a copyset holder's cache")),
      peer_fetch_bytes_(metrics_.counter("vread_peercache_fetch_bytes_total",
                                         {{"host", host.name()}},
                                         "Payload bytes served by peer-cache fetches")),
      peer_fallbacks_(metrics_.counter(
          "vread_peercache_fallbacks_total", {{"host", host.name()}},
          "Directory hits that still fell back to the disk / owner path")),
      peer_stale_rejects_(metrics_.counter(
          "vread_peercache_stale_rejects_total", {{"host", host.name()}},
          "Fetched ranges rejected because the holder's epoch was stale")),
      hedged_reads_(metrics_.counter("vread_hedge_daemon_legs_total",
                                     {{"host", host.name()}},
                                     "kRead requests marked as hedge (second) legs")),
      hedge_cancelled_(metrics_.counter(
          "vread_hedge_daemon_cancelled_total", {{"host", host.name()}},
          "Losing hedge legs aborted via the cancel flag")),
      open_descriptors_g_(metrics_.gauge("vread_daemon_open_descriptors",
                                         {{"host", host.name()}},
                                         "Live entries in the descriptor table")),
      read_latency_(metrics_.histogram("vread_daemon_read_latency_ns",
                                       {{"host", host.name()}},
                                       "kRead service time, dequeue to last chunk")) {
  if (Status st = config_.Validate(); !st.ok()) {
    throw std::invalid_argument("vread daemon config: " + st.to_string());
  }
  if (config_.qos.enabled) {
    qos_ = std::make_unique<QosScheduler>(host.sim(), config_.qos, host.name());
  }
  if (config_.coalesce.enabled) {
    coalesce_ = std::make_unique<CoalesceMap>(host.sim(), host.name());
    // Batch at most as many fills as the shm ring can put in flight at
    // once (auto), and never seal on a member count of zero.
    std::size_t batch_max = config_.coalesce.batch_max;
    if (batch_max == 0) {
      batch_max = std::min<std::size_t>(8, config_.shm_max_outstanding);
    }
    host_.disk().configure_batching(
        {batch_max, config_.coalesce.batch_window},
        [this](std::size_t requests, std::uint64_t bytes) {
          coalesce_->observe_batch(requests, bytes);
        });
  }
  if (config_.disk.enabled) {
    // Decorrelate replicas: every daemon gets the same DaemonConfig (the
    // cluster builder's contract), but real devices do not GC in lockstep.
    // Folding the host name into the seed keeps runs deterministic while
    // giving each host its own window schedule — the offset hedged reads
    // exploit.
    hw::Disk::Variability v = config_.disk;
    // An FNV-1a-style fold: FNV's prime, but a start value that is not
    // FNV's offset basis (14695981039346656037). The start value fixes
    // every host's GC windows and so every pinned digest; it stays.
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : host_.name()) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    v.seed ^= h;
    host_.disk().configure_variability(v);
  }
}

DaemonStats VReadDaemon::stats_snapshot() const {
  DaemonStats s;
  s.host = host_.name();
  s.opens = opens_.value();
  s.reads = reads_.value();
  s.bytes_read = bytes_read_.value();
  s.refreshes = refreshes_.value();
  s.failed_opens = failed_opens_.value();
  s.remote_reads = remote_reads_.value();
  s.restarts = restarts_.value();
  s.remote_retries = remote_retries_.value();
  s.rdma_failovers = rdma_failovers_.value();
  s.refresh_failures = refresh_failures_.value();
  s.mount_lookup_hits = mount_lookup_hits_.value();
  s.mount_lookup_misses = mount_lookup_misses_.value();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  if (coalesce_) {
    s.coalesce_hits = coalesce_->hits();
    s.coalesce_misses = coalesce_->misses();
    s.coalesce_failed_fills = coalesce_->failed_fills();
    s.coalesce_fill_bytes = coalesce_->fill_bytes();
    s.disk_batches = host_.disk().batch_count();
  }
  s.peer_lookups = peer_lookups_.value();
  s.peer_dir_hits = peer_dir_hits_.value();
  s.peer_fetches = peer_fetches_.value();
  s.peer_fetch_bytes = peer_fetch_bytes_.value();
  s.peer_fallbacks = peer_fallbacks_.value();
  s.peer_stale_rejects = peer_stale_rejects_.value();
  s.hedged_reads = hedged_reads_.value();
  s.hedge_cancelled = hedge_cancelled_.value();
  s.open_descriptors = descriptors_.size();
  s.local_mounts = local_mounts_.size();
  s.remote_peers = remote_peers_.size();
  s.clients = clients_.size();
  s.cache_bytes = cache_.bytes();
  s.cache_capacity = cache_.capacity();
  for (const auto& port : clients_) {
    s.shm_inflight += port->channel->inflight();
    s.shm_inflight_high += port->channel->inflight_high();
  }
  if (qos_) s.tenants = qos_->stats();
  s.read_latency = read_latency_;
  for (const auto& [key, c] : peer_bytes_) {
    s.peers.push_back(DaemonStats::PeerTraffic{
        key.first,
        key.second == static_cast<int>(Transport::kRdma) ? "rdma" : "tcp",
        c->value()});
  }
  return s;
}

metrics::Counter& VReadDaemon::peer_bytes(const VReadDaemon& peer, Transport t) {
  const auto key = std::make_pair(peer.name_, static_cast<int>(t));
  auto it = peer_bytes_.find(key);
  if (it != peer_bytes_.end()) return *it->second;
  metrics::Counter& c = metrics_.counter(
      "vread_daemon_peer_bytes_total",
      {{"host", host_.name()},
       {"peer", peer.name_},
       {"transport", t == Transport::kRdma ? "rdma" : "tcp"}},
      "Payload bytes received daemon-to-daemon, by peer and transport");
  peer_bytes_[key] = &c;
  return c;
}

void VReadDaemon::register_local_datanode(const std::string& dn_id,
                                          fs::DiskImagePtr image, std::string dir) {
  local_mounts_[dn_id] =
      LocalMount{std::make_shared<fs::LoopMount>(std::move(image)), std::move(dir)};
}

void VReadDaemon::register_remote_datanode(const std::string& dn_id, VReadDaemon* remote) {
  remote_peers_[dn_id] = remote;
}

void VReadDaemon::unregister_datanode(const std::string& dn_id) {
  local_mounts_.erase(dn_id);
  remote_peers_.erase(dn_id);
  // Own entries first (their removal unpublishes us from the copysets),
  // then the directory revokes every remaining holder cluster-wide.
  cache_.invalidate_datanode(sim::Name(dn_id));
  if (peer_dir_) peer_dir_->invalidate_datanode(this, dn_id);
}

void VReadDaemon::migrate_datanode(const std::string& dn_id, VReadDaemon& from,
                                   VReadDaemon& to, fs::DiskImagePtr image) {
  // Shared-storage live migration (§6): the image is reachable from both
  // hosts; only the hash tables change ("the vRead hash tables in both
  // hosts just need to be updated"). Open descriptors keep the old mount
  // alive through their shared references and drain naturally; new opens
  // follow the updated registry.
  from.local_mounts_.erase(dn_id);
  from.remote_peers_[dn_id] = &to;
  from.cache_.invalidate_datanode(sim::Name(dn_id));
  // Migration revokes the whole cluster's copysets for this datanode: the
  // destination will re-mount and may expose a newer snapshot, so cached
  // ranges published under the old placement are no longer authoritative.
  if (from.peer_dir_) from.peer_dir_->invalidate_datanode(&from, dn_id);
  to.remote_peers_.erase(dn_id);
  to.register_local_datanode(dn_id, std::move(image));
}

void VReadDaemon::set_peer_directory(PeerCacheDirectory* dir) {
  peer_dir_ = dir;
  if (!peer_dir_) {
    cache_.set_removal_observer(nullptr);
    return;
  }
  // Every eviction path (LRU, invalidation, clear) drops us
  // from the block's copyset the moment its last entry leaves, so the
  // directory never routes a fetch at bytes we no longer hold.
  cache_.set_removal_observer([this](sim::Name dn, sim::Name block) {
    peer_epochs_.erase(std::make_pair(dn, block));
    peer_dir_->unpublish(this, dn, block);
  });
}

void VReadDaemon::apply_peer_invalidate(const std::string& dn, const std::string& block) {
  if (block.empty()) {
    cache_.invalidate_datanode(sim::Name(dn));
    for (auto it = peer_epochs_.lower_bound(std::make_pair(dn, std::string()));
         it != peer_epochs_.end() && it->first.first == dn;) {
      it = peer_epochs_.erase(it);
    }
  } else {
    cache_.invalidate_block(sim::Name(dn), sim::Name(block));
    peer_epochs_.erase(std::make_pair(dn, block));
  }
  // Open remote descriptors lose their size snapshot: the owner's refresh
  // may have changed the inode, so local range checks against the
  // open-time size are no longer trustworthy. Flagged descriptors serve
  // through the owner-checked stream path from here on (best-effort — a
  // requester outside the copyset is not notified and must reopen).
  for (auto& [vfd, desc] : descriptors_) {
    (void)vfd;
    if (desc->remote && desc->dn_id == dn &&
        (block.empty() || desc->block_name == block)) {
      desc->peer_size_stale = true;
    }
  }
  if (obs_fr_) {
    obs_fr_->record(host_.sim().now(), obs::FlightEventKind::kPeerInvalidate, dn, block);
  }
}

void VReadDaemon::subscribe(hdfs::NameNode& nn) {
  nn.register_listener([this](const hdfs::NameNode::BlockEvent& ev) {
    // Only mounts this daemon owns need a refresh; remote events reach the
    // remote daemon through its own subscription.
    if (local_mounts_.count(ev.datanode_id) == 0) return;
    std::string dn = ev.datanode_id;
    control_->submit([this, dn]() -> sim::Task {  //
      co_await local_refresh(control_->tid(), dn);
    });
  });
}

virt::ShmChannel& VReadDaemon::attach_client(virt::Vm& client_vm) {
  auto port = std::make_unique<ClientPort>();
  port->tenant = sim::Name(client_vm.name());
  // Per-tenant shm pipeline depth override (QoS isolation of the slot
  // budget); the channel's own semaphore enforces it.
  std::size_t outstanding = config_.shm_max_outstanding;
  if (auto it = config_.qos.shm_outstanding.find(port->tenant);
      config_.qos.enabled && it != config_.qos.shm_outstanding.end()) {
    outstanding = it->second;
  }
  port->channel = std::make_unique<virt::ShmChannel>(
      client_vm, host_.costs(), outstanding);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    std::string name = "vread-daemon-" + client_vm.name();
    if (w > 0) name += "-w" + std::to_string(w + 1);
    port->tids.push_back(host_.cpu().add_thread(name, host_.name()));
  }
  if (qos_) {
    port->adm_tid =
        host_.cpu().add_thread("vread-daemon-" + client_vm.name() + "-adm", host_.name());
  }
  clients_.push_back(std::move(port));
  ClientPort& p = *clients_.back();
  if (qos_) {
    // QoS layout: this port's pump feeds the scheduler; its worker threads
    // join the daemon-wide pool and dequeue in DRR order, so any worker
    // may serve any tenant.
    host_.sim().spawn(pump(p));
    for (hw::ThreadId tid : p.tids) host_.sim().spawn(pool_worker(tid));
  } else {
    for (hw::ThreadId tid : p.tids) host_.sim().spawn(serve(p, tid));
  }
  return *p.channel;
}

VReadDaemon::Transport VReadDaemon::effective_transport(hw::ThreadId tid, trace::Ctx ctx) {
  if (config_.transport == Transport::kRdma &&
      fault::registry().should_fire(fault::points::kRdmaDown)) {
    // RDMA link down: fail the operation over to the user-space TCP
    // transport instead of failing the read.
    rdma_failovers_.inc();
    trace::tracer().instant(ctx, trace::SpanKind::kFallback, "rdma->tcp",
                            static_cast<int>(tid));
    if (obs_fr_) {
      obs_fr_->record(host_.sim().now(), obs::FlightEventKind::kFailover, "rdma->tcp");
    }
    return Transport::kTcp;
  }
  return config_.transport;
}

sim::Task VReadDaemon::serve(ClientPort& port, hw::ThreadId tid) {
  for (;;) {
    ShmRequest req = co_await port.channel->requests().recv();
    co_await handle(*port.channel, tid, std::move(req));
  }
}

sim::Task VReadDaemon::pump(ClientPort& port) {
  for (;;) {
    ShmRequest req = co_await port.channel->requests().recv();
    if (req.tenant.empty()) req.tenant = port.tenant;
    const std::uint64_t rid = req.id;
    const std::uint64_t vfd = req.vfd;
    const trace::Ctx ctx = req.ctx;
    const sim::Name tenant = req.tenant;
    QosScheduler::Item item{std::move(req), port.channel.get()};
    if (!qos_->submit(tenant, std::move(item))) {
      // Shed: answer immediately with a typed retryable status. Spawned so
      // a ring-full stall on the rejection can never block admission of
      // other tenants' requests.
      host_.sim().spawn(shed_response(port, rid, vfd, ctx));
    }
  }
}

sim::Task VReadDaemon::pool_worker(hw::ThreadId tid) {
  for (;;) {
    QosScheduler::Item item;
    co_await qos_->next(item);
    co_await handle(*item.channel, tid, std::move(item.req));
  }
}

sim::Task VReadDaemon::shed_response(ClientPort& port, std::uint64_t req_id,
                                     std::uint64_t vfd, trace::Ctx ctx) {
  co_await port.channel->respond_part(port.adm_tid, req_id, kVReadErrOverloaded, vfd,
                                      mem::Buffer(), /*last=*/true,
                                      /*charge_copy=*/true, ctx);
}

sim::Task VReadDaemon::handle(virt::ShmChannel& channel, hw::ThreadId tid,
                              ShmRequest req) {
  const trace::Ctx ctx = req.ctx;
  // eventfd wakeup on the daemon side (under QoS: paid at dispatch, not
  // admission).
  co_await host_.cpu().consume(tid, host_.costs().doorbell_host, CycleCategory::kInterrupt,
                               ctx);
  // Injected daemon crash: the process dies and is supervised back up
  // before this request is picked off the ring. All descriptor state is
  // gone; reads on pre-crash vfds answer BAD_FD below.
  if (fault::registry().should_fire(fault::points::kDaemonCrash)) restart();
  ShmResponse resp;
  resp.id = req.id;

  switch (static_cast<VReadOp>(req.op)) {
    case VReadOp::kOpen: {
      std::uint64_t vfd = 0;
      Status status(StatusCode::kNoDatanode, req.datanode_id);
      if (local_mounts_.count(req.datanode_id) != 0) {
        co_await local_open(tid, req.datanode_id, req.block_name, vfd, status, ctx);
      } else if (auto it = remote_peers_.find(req.datanode_id);
                 it != remote_peers_.end()) {
        std::uint64_t peer_vfd = 0;
        std::uint64_t peer_size = 0;
        co_await remote_open(tid, it->second, req.datanode_id, req.block_name,
                             peer_vfd, peer_size, status, ctx);
        if (status.ok()) {
          vfd = next_vfd_++;
          auto d = std::make_shared<Descriptor>();
          d->dn_id = req.datanode_id;
          d->block_name = req.block_name;
          d->remote = true;
          d->peer = it->second;
          d->peer_vfd = peer_vfd;
          // Snapshot size of the peer's inode (from the open reply): lets
          // the peer-tier serve loop chop exactly like the peer would.
          d->inode.size = peer_size;
          descriptors_[vfd] = std::move(d);
          open_descriptors_g_.set(static_cast<std::int64_t>(descriptors_.size()));
        }
      } else {
        failed_opens_.inc();
      }
      resp.status = status.to_wire();
      resp.vfd = vfd;
      break;
    }
    case VReadOp::kRead: {
      auto it = descriptors_.find(req.vfd);
      if (it == descriptors_.end()) {
        resp.status = kVReadErrBadFd;
        break;
      }
      // Hold a shared reference for the whole stream: a concurrent
      // restart() clears the table but must not invalidate in-flight
      // reads that already resolved their descriptor.
      DescriptorPtr d = it->second;
      if (req.hedge) {
        hedged_reads_.inc();
        if (obs_fr_) {
          obs_fr_->record(host_.sim().now(), obs::FlightEventKind::kHedge,
                          d->block_name, "leg", req.len);
        }
      }
      if (hedge_cancelled(req.cancel)) {
        // The winner finished while this leg sat in the dispatch queue:
        // nothing was charged, nothing to un-charge.
        co_await abort_cancelled(channel, tid, req, d->block_name, 0);
        co_return;
      }
      const sim::SimTime t0 = host_.sim().now();
      // In-flight byte accounting for load_signal(); RAII so a throwing
      // serve path can't leak the increment.
      struct InflightGuard {
        std::uint64_t* v;
        std::uint64_t n;
        ~InflightGuard() { *v -= n; }
      } inflight_guard{&inflight_read_bytes_, req.len};
      inflight_read_bytes_ += req.len;
      co_await serve_chunks(channel, tid, req, *d);
      read_latency_.observe(static_cast<std::uint64_t>(host_.sim().now() - t0));
      co_return;  // responses already streamed into the ring
    }
    case VReadOp::kClose: {
      auto it = descriptors_.find(req.vfd);
      if (it != descriptors_.end()) {
        if (it->second->remote) {
          // Tell the peer to drop its descriptor (small control message).
          VReadDaemon* peer = it->second->peer;
          const std::uint64_t peer_vfd = it->second->peer_vfd;
          co_await host_.lan().transfer(host_.lan_id(), peer->host_.lan_id(), kCtrlBytes);
          peer->control_->submit([peer, peer_vfd]() -> sim::Task {
            peer->descriptors_.erase(peer_vfd);
            peer->open_descriptors_g_.set(
                static_cast<std::int64_t>(peer->descriptors_.size()));
            co_return;
          });
        }
        descriptors_.erase(req.vfd);
        open_descriptors_g_.set(static_cast<std::int64_t>(descriptors_.size()));
      }
      resp.status = 0;
      break;
    }
    case VReadOp::kUpdate: {
      if (local_mounts_.count(req.datanode_id) != 0) {
        co_await local_refresh(tid, req.datanode_id);
      } else if (auto it = remote_peers_.find(req.datanode_id);
                 it != remote_peers_.end()) {
        VReadDaemon* peer = it->second;
        std::string dn = req.datanode_id;
        co_await host_.lan().transfer(host_.lan_id(), peer->host_.lan_id(), kCtrlBytes);
        // Named local: a lambda temporary inside a co_await full-expression
        // trips a GCC 12 double-destruction bug (same below).
        std::function<sim::Task(hw::ThreadId)> job =
            [peer, dn](hw::ThreadId tid) -> sim::Task {
          if (peer->local_mounts_.count(dn) != 0) co_await peer->local_refresh(tid, dn);
        };
        co_await peer->run_on_control(std::move(job));
      }
      resp.status = 0;
      break;
    }
  }
  co_await channel.respond(tid, std::move(resp), /*charge_copy=*/true, ctx);
}

sim::Task VReadDaemon::local_open(hw::ThreadId tid, sim::Name dn_id, sim::Name block_name,
                                  std::uint64_t& vfd, Status& status, trace::Ctx ctx) {
  const hw::CostModel& cm = host_.costs();
  co_await host_.cpu().consume(tid, cm.vread_open_daemon, CycleCategory::kOther, ctx);
  const LocalMount& lm = local_mounts_.at(dn_id);
  std::shared_ptr<fs::LoopMount> mount_ptr = lm.mount;
  fs::LoopMount& mount = *mount_ptr;
  const std::string path = lm.dir + "/" + block_name.str();
  std::optional<fs::Inode> ino = mount.lookup(path);
  if (ino) {
    mount_lookup_hits_.inc();
  } else {
    mount_lookup_misses_.inc();
  }
  if (!ino && mount.stale()) {
    // The namenode-triggered refresh may still be queued; refreshing here
    // mirrors the prototype re-reading the dentry cache on demand.
    co_await local_refresh(tid, dn_id);
    ino = mount.lookup(path);
  }
  if (!ino) {
    status = Status(StatusCode::kNoBlock, path);
    failed_opens_.inc();
    co_return;
  }
  vfd = next_vfd_++;
  auto d = std::make_shared<Descriptor>();
  d->dn_id = dn_id;
  d->block_name = block_name;
  d->inode = *ino;
  d->mount = std::move(mount_ptr);
  descriptors_[vfd] = std::move(d);
  open_descriptors_g_.set(static_cast<std::int64_t>(descriptors_.size()));
  status = Status::Ok();
  opens_.inc();
}

sim::Task VReadDaemon::readahead_task(std::shared_ptr<RaState> ra, std::uint64_t key,
                                      std::uint64_t begin, std::uint64_t end,
                                      trace::Ctx ctx) {
  // The window lands incrementally so a waiter needing only the first
  // pages resumes as soon as they arrive, not when the whole window does.
  std::uint64_t pos = begin;
  while (pos < end) {
    const std::uint64_t n = std::min(kStreamChunk, end - pos);
    const std::uint64_t missing = host_.page_cache().miss_bytes(key, pos, n);
    if (missing > 0) co_await host_.disk().read_batched(missing, ctx);
    host_.page_cache().fill(key, pos, n);
    pos += n;
    ra->done = std::max(ra->done, pos);
    ra->event.set();
  }
}

sim::Task VReadDaemon::ensure_resident(hw::ThreadId tid, Descriptor& d,
                                       std::uint64_t offset, std::uint64_t n,
                                       trace::Ctx ctx, bool allow_readahead,
                                       std::uint64_t* disk_bytes) {
  const hw::CostModel& cm = host_.costs();
  const std::uint64_t key = cache_key(*d.mount->image(), d.inode.id);
  if (!d.ra) {
    // Readahead state is shared by every descriptor of this file, so
    // concurrent streams coalesce on one in-flight fill (each waits for
    // the window another stream is already reading) instead of fetching
    // the same bytes from the device once per descriptor.
    std::weak_ptr<RaState>& slot = ra_states_[key];
    d.ra = slot.lock();
    if (!d.ra) {
      d.ra = std::make_shared<RaState>(host_.sim());
      slot = d.ra;
    }
  }
  RaState& ra = *d.ra;
  const std::uint64_t end = offset + n;
  // The per-request hint forces the random-access arm: fetch exactly what
  // was asked for, no window fill, no async kick (ReadRequest::readahead).
  const bool sequential =
      allow_readahead && (offset == d.seq_pos || end <= ra.done);

  // Block-layer submit work for this request.
  co_await host_.cpu().consume(tid, cm.blk_per_request + cm.blk_per_page * cm.pages(n),
                               CycleCategory::kDiskRead, ctx);

  if (sequential) {
    // Wait for an in-flight readahead window that covers us.
    while (end > ra.done && ra.inflight_end >= end) {
      ra.event.reset();
      co_await ra.event.wait();
    }
    if (end > ra.done) {
      // Synchronous fill of request + readahead window. Published as
      // in-flight so a concurrent stream needing these bytes waits for
      // this fill instead of issuing a duplicate disk read.
      const std::uint64_t window_end =
          std::min(d.inode.size, offset + std::max(n, kReadahead));
      ra.inflight_end = std::max(ra.inflight_end, window_end);
      const std::uint64_t missing =
          host_.page_cache().miss_bytes(key, offset, window_end - offset);
      if (missing > 0) {
        co_await host_.disk().read_batched(missing, ctx);
        if (disk_bytes) *disk_bytes += missing;
      }
      host_.page_cache().fill(key, offset, window_end - offset);
      ra.done = std::max(ra.done, window_end);
      ra.event.set();
    }
    // Kick the next async window when we are close to the edge.
    if (ra.done < d.inode.size && ra.done - end < kReadahead / 2 &&
        ra.inflight_end <= ra.done) {
      const std::uint64_t ra_end = std::min(d.inode.size, ra.done + kReadahead);
      ra.inflight_end = ra_end;
      host_.sim().spawn(readahead_task(d.ra, key, ra.done, ra_end, ctx));
    }
  } else {
    // Random access: fetch exactly what was asked for.
    const std::uint64_t missing = host_.page_cache().miss_bytes(key, offset, n);
    if (missing > 0) {
      co_await host_.disk().read_batched(missing, ctx);
      if (disk_bytes) *disk_bytes += missing;
    }
    host_.page_cache().fill(key, offset, n);
  }
  d.seq_pos = end;
}

sim::Task VReadDaemon::read_chunk(hw::ThreadId tid, Descriptor& d, std::uint64_t off,
                                  std::uint64_t len, ReadState& st, Chunk& c) {
  const ReadHints& h = st.hints;
  std::uint64_t n = len;
  if (!st.pushed) {
    if (off >= d.inode.size) {
      // The snapshot inode is shorter than the reader expects (stale
      // mount): force the client back to the vanilla path.
      c.status = Status(StatusCode::kRange, d.block_name);
      co_return;
    }
    n = std::min(len, d.inode.size - off);
  }
  // Direct mode has no cache, so no coalescing and no peer tier either:
  // its contract is every byte off the device (a remote window still
  // merges its wire traversal). A pushed window takes neither the cache
  // nor the peer tier. Each step below runs only while the earlier ones
  // left `c.data` empty.
  const bool cached = !st.pushed && !config_.direct_read && cache_.enabled();
  // A fill this request already registered with may cover this chunk too,
  // and inside a push the owner's next arrival is this chunk; otherwise
  // look for a source.
  bool joined = st.joined && off >= st.joined->offset &&
                off + n <= st.joined->offset + st.joined->len;
  if (!st.push && !joined) {
    // Shared block cache (DESIGN.md §10). A hit skips the backing store
    // and serves the ring copy straight from the cached buffer, so the
    // only remaining copies are the two standing ring copies.
    if (cached && !d.remote) {
      co_await probe_cache(tid, d.dn_id, d.block_name, off, n, h.ctx, c.data);
    }
    // Cross-VM coalescing (§12): a window already being filled for someone
    // else is joined as a waiter instead of refilled. The window is what
    // this read would ask the backing store for: one chunk, or the rest of
    // a pushed request.
    if (c.data.empty() && coalesce_ && h.coalesce && (d.remote || !config_.direct_read)) {
      const std::uint64_t window = st.pushed ? st.end - off : n;
      // A request registers with a fill once, whatever it takes from it.
      st.joined = coalesce_->attach(d.dn_id, d.block_name, off, window, h.tenant);
      joined = st.joined != nullptr;
      if (!joined) {
        st.led = coalesce_->begin(d.dn_id, d.block_name, off, window, h.tenant);
      } else {
        if (obs_fr_) {
          const char* site = !d.remote ? "local-fill" : st.pushed ? "remote-leg" : "peer-tier";
          obs_fr_->record(host_.sim().now(), obs::FlightEventKind::kCoalesceMerge,
                          d.block_name, site, window);
        }
        trace::tracer().instant(h.ctx, trace::SpanKind::kCoalesce, "coalesce-attach",
                                static_cast<int>(tid));
      }
    }
  }
  if (joined) {
    co_await take_fill(tid, d, off, n, st, c);
  } else if (c.data.empty()) {
    // A remote block probes the cache after the join, so concurrent streams
    // merge at the same chop points the caches use (§15).
    if (cached && d.remote) {
      co_await probe_cache(tid, d.dn_id, d.block_name, off, n, h.ctx, c.data);
    }
    std::uint64_t fill_bytes = 0;
    // Cooperative peer tier (§15): before paying the backing store, ask the
    // owner directory whether a copyset holder still caches this exact
    // range — one LAN hop beats a device read.
    if (c.data.empty() && cached && h.peer && peer_dir_) {
      std::uint64_t epoch = 0;
      co_await peer_fetch(tid, d.dn_id, d.block_name, off, n, h.ctx, c.data, epoch);
      if (!c.data.empty()) {
        cache_if_current(d, off, c.data, epoch);
        fill_bytes = n;
      }
    }
    if (c.data.empty() && d.remote) {
      co_await owner_chunk(tid, d, off, n, st, c);
      // Every arrival since the led fill began came off the wire.
      if (st.led) fill_bytes = off + c.data.size() - st.led->offset;
    } else if (c.data.empty()) {
      co_await image_chunk(tid, d, off, n, h, c, fill_bytes);
    }
    // Fan the window out to every waiter and split the backing-store cost
    // across the tenants that shared the fill; a push completes its fill
    // with its last arrival.
    if (st.led && !st.push) {
      finish_fill(tid, h.ctx, st.led, c.data, c.status, fill_bytes);
      st.led.reset();
    }
  }
  if (c.status.ok() && !d.remote) {
    d.seq_pos = off + n;
    reads_.inc();
    bytes_read_.inc(c.data.size());
  }
}

sim::Task VReadDaemon::image_chunk(hw::ThreadId tid, Descriptor& d, std::uint64_t off,
                                   std::uint64_t n, const ReadHints& h, Chunk& c,
                                   std::uint64_t& disk_bytes) {
  const hw::CostModel& cm = host_.costs();
  if (config_.direct_read) {
    // §6 alternative: raw image access. Per-page address translation, and
    // no host page cache — every byte comes off the device.
    co_await host_.cpu().consume(
        tid, cm.blk_per_request + cm.direct_translate_per_page * cm.pages(n),
        CycleCategory::kLoopDevice, h.ctx);
    co_await host_.disk().read(n, h.ctx);
    co_await host_.cpu().consume(tid, cm.copy_cost(n), CycleCategory::kLoopDevice, h.ctx);
    c.data = d.mount->read(d.inode, off, n);
    co_return;
  }
  // Host file-system read through the loop device (with readahead).
  co_await ensure_resident(tid, d, off, n, h.ctx, h.readahead, &disk_bytes);
  // Loop-device traversal + the page-cache -> daemon-buffer copy. Not a
  // kCopy span: the paper's copy arithmetic counts only the two standing
  // ring copies on the vRead path (see DESIGN.md §8).
  co_await host_.cpu().consume(tid, cm.loop_per_page * cm.pages(n) + cm.copy_cost(n),
                               CycleCategory::kLoopDevice, h.ctx);
  c.data = d.mount->read(d.inode, off, n);
  if (cache_.insert(d.dn_id, d.block_name, off, c.data) && peer_dir_) {
    // Unconditional publish is safe HERE (unlike the peer/owner-fetch
    // paths): mount read, insert, and publish share one tick with no
    // suspension point, and a refresh's cache-invalidate + epoch bump
    // are equally atomic — so the mount state these bytes reflect and
    // the epoch they are published under cannot be separated by an
    // invalidation.
    peer_epochs_[std::make_pair(d.dn_id, d.block_name)] =
        peer_dir_->publish(this, d.dn_id, d.block_name);
  }
}

sim::Task VReadDaemon::owner_chunk(hw::ThreadId tid, const Descriptor& d,
                                   std::uint64_t off, std::uint64_t n, ReadState& st,
                                   Chunk& c) {
  const trace::Ctx ctx = st.hints.ctx;
  // With the peer tier on, snapshot the directory epoch BEFORE dispatching
  // (a one-chunk push opens and lands in this call): the bytes cross
  // several suspension points (owner control worker, LAN payload, RX
  // CPU), and an invalidation interleaving anywhere in that span — e.g.
  // the owner's local_refresh exposing a new snapshot — means they are
  // authoritative at THIS epoch, not at whatever epoch holds when they
  // finally land here.
  std::uint64_t epoch = 0;
  if (!st.push) {
    if (!st.pushed) epoch = peer_dir_->epoch(d.dn_id, d.block_name);
    VReadDaemon* owner = d.peer;
    const Transport transport = effective_transport(tid, ctx);
    // Request out: one WR / one user-space TCP message.
    co_await charge_send(tid, transport, 0, ctx);
    co_await host_.lan().transfer(host_.lan_id(), owner->host_.lan_id(), kCtrlBytes);
    if (fault::registry().should_fire(fault::points::kPeerDown)) {
      // Owner unreachable: the guest library retries (bounded) and then
      // degrades to the vanilla socket path. A led fill fails with it.
      c.status = Status(StatusCode::kPeerDown, d.dn_id);
      co_return;
    }
    Push& p = st.push.emplace(host_.sim(), transport);
    // The hints cross the wire in the control message, so the owner's
    // chain honours the same tenant and coalesce/readahead intent. A leg
    // that leads a fill is never cancelled mid-window: its bytes complete
    // the fill its waiters sleep on.
    ReadHints oh = st.hints;
    oh.peer = false;
    if (st.led) oh.cancel = nullptr;
    const std::uint64_t window = st.pushed ? st.end - off : n;
    owner->control_->submit([owner, vfd = d.peer_vfd, off, window, transport, oh,
                             dst = host_.lan_id(), carried = !st.pushed,
                             arrivals = &p.arrivals]() -> sim::Task {
      co_await owner->push_window(owner->control_->tid(), vfd, off, window, transport, oh,
                                  dst, carried, arrivals);
    });
    p.from_owner = &peer_bytes(*owner, transport);
  }
  Push& p = *st.push;
  Chunk a = co_await p.arrivals.recv();
  if (a.wire > 0) {
    co_await cross_wire(host_.lan(), d.peer->host_.lan_id(), host_.lan_id(), a.wire,
                        p.transport, ctx);
  }
  if (!a.status.ok()) {
    c.status = std::move(a.status);
    st.push.reset();
    co_return;
  }
  p.from_owner->inc(a.data.size());
  // One CQE (the payload already sits in the registered ring memory), or
  // the receive-side copy out of the user-space TCP stream.
  co_await charge_recv(tid, p.transport, a.data.size(), ctx);
  c.in_ring = lands_in_ring(p.transport);
  if (!st.pushed) cache_if_current(d, off, a.data, epoch);
  c.last = st.pushed && a.last;
  if (a.last) {
    st.push.reset();
  } else if (st.led) {
    coalesce_->extend(st.led, a.data);
  }
  c.data = std::move(a.data);
}

sim::Task VReadDaemon::probe_cache(hw::ThreadId tid, sim::Name dn, sim::Name block,
                                   std::uint64_t off, std::uint64_t n, trace::Ctx ctx,
                                   mem::Buffer& out) {
  const hw::CostModel& cm = host_.costs();
  co_await host_.cpu().consume(
      tid, cm.daemon_cache_lookup + cm.daemon_cache_per_page * cm.pages(n),
      CycleCategory::kLoopDevice, ctx);
  out = cache_.lookup(dn, block, off, n);
}

sim::Task VReadDaemon::take_fill(hw::ThreadId tid, const Descriptor& d, std::uint64_t off,
                                 std::uint64_t n, ReadState& st, Chunk& c) {
  const CoalesceMap::Fill& f = *st.joined;
  {
    const trace::Scope wait =
        trace::Scope::open(st.hints.ctx, trace::SpanKind::kSyncWait, "coalesce-wait", tid, n);
    // A pushed fill lands chunk by chunk: wake once this range is in.
    while (!f.complete && f.offset + f.data.size() < off + n) {
      st.joined->done.reset();
      co_await st.joined->done.wait();
    }
  }
  const std::uint64_t landed = f.offset + f.data.size();
  if (landed >= off + n) {
    c.data = f.data.slice(off - f.offset, n);
  } else if (!f.status.ok()) {
    c.status = f.status;
  } else if (off >= landed) {
    // A remote leader's payload stops at the owner inode's end; a window
    // starting past that would have gotten RANGE from the owner too.
    c.status = Status(StatusCode::kRange, d.block_name);
  } else {
    c.data = f.data.slice(off - f.offset, landed - off);
  }
  c.last = st.pushed && f.complete && landed <= off + n;
}

void VReadDaemon::finish_fill(hw::ThreadId tid, trace::Ctx ctx,
                              const CoalesceMap::FillPtr& fill, mem::Buffer data,
                              const Status& status, std::uint64_t fill_bytes) {
  if (fill->waiters > 0 && status.ok()) {
    trace::tracer().instant(ctx, trace::SpanKind::kCoalesce, "coalesce-fanout",
                            static_cast<int>(tid));
  }
  coalesce_->complete(fill, std::move(data), status, status.ok() ? fill_bytes : 0);
  if (!qos_ || fill->fill_bytes == 0 || !fill->status.ok()) return;
  const auto& tenants = fill->tenants;
  const std::uint64_t share = fill->fill_bytes / tenants.size();
  // The integer remainder lands on the leader so per-tenant charges always
  // sum exactly to the bytes the backing store served.
  qos_->charge_fill(tenants.front(), fill->fill_bytes - share * (tenants.size() - 1));
  for (std::size_t i = 1; i < tenants.size(); ++i) {
    qos_->charge_fill(tenants[i], share);
  }
}

void VReadDaemon::cache_if_current(const Descriptor& d, std::uint64_t off,
                                   const mem::Buffer& data, std::uint64_t epoch) {
  if (!peer_dir_->publish_if_current(this, d.dn_id, d.block_name, epoch)) return;
  if (cache_.insert(d.dn_id, d.block_name, off, data)) {
    peer_epochs_[std::make_pair(d.dn_id, d.block_name)] = epoch;
  } else {
    peer_dir_->unpublish(this, d.dn_id, d.block_name);
  }
}

sim::Task VReadDaemon::charge_net(hw::ThreadId tid, Transport transport, bool send,
                                  std::uint64_t bytes, trace::Ctx ctx) {
  const hw::CostModel& cm = host_.costs();
  if (transport == Transport::kRdma) {
    // The sender posts one WR whose verb cost grows with the payload (the
    // active push of paper Fig. 7); the receiver reaps one CQE, the payload
    // already in registered memory.
    const sim::Cycles cycles =
        send ? cm.rdma_post_wr + cm.per_byte(bytes, cm.rdma_cycles_per_byte) : cm.rdma_cqe;
    co_await host_.cpu().consume(tid, cycles, CycleCategory::kRdma, ctx);
    co_return;
  }
  // User-space TCP: per-segment syscalls (one for a bare control message)
  // plus the payload copy, a real data copy on the vread-net path.
  const trace::Scope copy = trace::Scope::open(
      ctx, trace::SpanKind::kCopy, send ? "copy vread-net-tx" : "copy vread-net-rx", tid, bytes);
  co_await host_.cpu().consume(
      tid,
      cm.vreadnet_per_segment * std::max<std::uint64_t>(1, cm.segments(bytes)) +
          cm.copy_cost(bytes),
      CycleCategory::kVreadNet, ctx);
}

sim::Task VReadDaemon::local_refresh(hw::ThreadId tid, const std::string& dn_id) {
  const hw::CostModel& cm = host_.costs();
  auto it = local_mounts_.find(dn_id);
  if (it == local_mounts_.end()) co_return;
  co_await host_.cpu().consume(tid, cm.mount_refresh, CycleCategory::kLoopDevice);
  // A refresh means the namespace changed (vRead_update / remount): drop
  // cached ranges for this datanode so new snapshots are never served stale.
  cache_.invalidate_datanode(sim::Name(dn_id));
  // ... and revoke every copyset holder cluster-wide (§15): the epoch bump
  // is synchronous, the per-holder notifications ride control messages.
  if (peer_dir_) peer_dir_->invalidate_datanode(this, dn_id);
  const bool was_stale = it->second.mount->stale();
  it->second.mount->refresh();
  if (was_stale && it->second.mount->stale()) {
    // The remount/rescan itself failed (injected or real): the mount stays
    // on its old snapshot; opens of fresh blocks keep missing and clients
    // keep degrading to the socket path until a later refresh succeeds.
    refresh_failures_.inc();
  } else {
    refreshes_.inc();
  }
}

sim::Task VReadDaemon::run_on_control(std::function<sim::Task(hw::ThreadId)> job) {
  sim::Event done(host_.sim());
  control_->submit([this, job = std::move(job), &done]() -> sim::Task {
    co_await job(control_->tid());
    done.set();
  });
  co_await done.wait();
}

sim::Task VReadDaemon::peer_fetch(hw::ThreadId tid, sim::Name dn, sim::Name block,
                                  std::uint64_t offset, std::uint64_t n, trace::Ctx ctx,
                                  mem::Buffer& out, std::uint64_t& epoch_out) {
  if (!peer_dir_ || n == 0 || n > kPeerMaxFetchBytes) co_return;
  peer_lookups_.inc();
  PeerCacheDirectory::LookupResult lr;
  co_await peer_dir_->lookup(this, dn, block, lr);
  if (lr.holders.empty()) {
    peer_dir_misses_.inc();
    co_return;
  }
  peer_dir_hits_.inc();
  const std::size_t attempts = std::min(kPeerFetchAttempts, lr.holders.size());
  for (std::size_t i = 0; i < attempts; ++i) {
    VReadDaemon* holder = lr.holders[i].daemon;
    const Transport transport = effective_transport(tid, ctx);
    // Fetch request out: one WR / one user-space TCP message to the holder.
    co_await charge_send(tid, transport, 0, ctx);
    co_await host_.lan().transfer(host_.lan_id(), holder->host_.lan_id(), kCtrlBytes);
    if (fault::registry().should_fire(fault::points::kPeerCachePeerDown)) {
      // The holder died mid-fetch. No retry storm here: the tier is an
      // optimization, so we just move to the next holder (or the disk).
      continue;
    }

    // Holder side: one cache probe on its control worker — no disk, no
    // mount; a holder that evicted since publishing simply answers "gone".
    mem::Buffer buf;
    std::uint64_t holder_epoch = 0;
    std::function<sim::Task(hw::ThreadId)> fetch_job =
        [holder, dn, block, offset, n, transport, &buf, &holder_epoch,
         ctx](hw::ThreadId ptid) -> sim::Task {
      co_await holder->charge_recv(ptid, transport, 0, ctx);
      co_await holder->probe_cache(ptid, dn, block, offset, n, ctx, buf);
      if (buf.empty()) co_return;
      if (auto it = holder->peer_epochs_.find(std::make_pair(dn, block));
          it != holder->peer_epochs_.end()) {
        holder_epoch = it->second;
      }
      // Send side: active push of the payload, same arithmetic as the
      // owner-streamed remote read (paper Fig. 7).
      co_await holder->charge_send(ptid, transport, n, ctx);
    };
    co_await holder->run_on_control(std::move(fetch_job));

    if (buf.empty()) {
      // Miss header back (the holder evicted between publish and fetch).
      co_await host_.lan().transfer(holder->host_.lan_id(), host_.lan_id(), kCtrlBytes);
      continue;
    }
    // Payload crosses the wire, then receive-side CPU.
    co_await host_.lan().transfer(holder->host_.lan_id(), host_.lan_id(), n);
    co_await charge_recv(tid, transport, n, ctx);
    peer_bytes(*holder, transport).inc(n);
    if (holder_epoch != lr.epoch) {
      // Defense layer 3: the holder's copy predates the current epoch (its
      // invalidation was lost, or the directory answered stale). The bytes
      // are already paid for but must never be served.
      peer_stale_rejects_.inc();
      continue;
    }
    out = std::move(buf);
    epoch_out = lr.epoch;
    peer_fetches_.inc();
    peer_fetch_bytes_.inc(n);
    if (obs_fr_) {
      obs_fr_->record(host_.sim().now(), obs::FlightEventKind::kPeerFetch, block,
                      holder->host_.name(), n);
    }
    co_return;
  }
  // Directory hit, but nobody could serve: the caller pays the disk.
  peer_fallbacks_.inc();
}

sim::Task VReadDaemon::remote_open(hw::ThreadId tid, VReadDaemon* peer, sim::Name dn_id,
                                   sim::Name block_name, std::uint64_t& peer_vfd,
                                   std::uint64_t& size_out,
                                   Status& status, trace::Ctx ctx) {
  auto& tr = trace::tracer();
  // Bounded retry with exponential backoff when the peer does not answer.
  for (int attempt = 1; attempt <= kRetryAttempts; ++attempt) {
    const Transport transport = effective_transport(tid, ctx);
    // Request out: one WR (RDMA) or one user-space TCP message.
    co_await charge_send(tid, transport, 0, ctx);
    co_await host_.lan().transfer(host_.lan_id(), peer->host_.lan_id(), kCtrlBytes);

    if (fault::registry().should_fire(fault::points::kPeerDown)) {
      // The peer never answers. Back off and retry (bounded), then report
      // PEER_DOWN so the client can degrade to the vanilla socket path.
      if (attempt < kRetryAttempts) {
        remote_retries_.inc();
        tr.instant(ctx, trace::SpanKind::kRetry, "peer-retry", static_cast<int>(tid));
        if (obs_fr_) {
          obs_fr_->record(host_.sim().now(), obs::FlightEventKind::kRetry, dn_id,
                          "peer-retry", static_cast<std::uint64_t>(attempt));
        }
        co_await host_.sim().delay(retry_backoff_before(attempt + 1));
        continue;
      }
      status = Status(StatusCode::kPeerDown, dn_id);
      failed_opens_.inc();
      co_return;
    }

    std::uint64_t vfd_out = 0;
    std::uint64_t inode_size_out = 0;
    Status status_out(StatusCode::kNoDatanode, dn_id);
    std::function<sim::Task(hw::ThreadId)> open_job =
        [peer, transport, dn_id, block_name, &vfd_out, &inode_size_out, &status_out,
         ctx](hw::ThreadId ptid) -> sim::Task {
      co_await peer->charge_recv(ptid, transport, 0, ctx);
      if (peer->local_mounts_.count(dn_id) != 0) {
        co_await peer->local_open(ptid, dn_id, block_name, vfd_out, status_out, ctx);
        if (status_out.ok()) {
          // The snapshot size rides the reply header: the requester's
          // peer-tier chopper needs it to mirror the peer's chop points.
          inode_size_out = peer->descriptors_.at(vfd_out)->inode.size;
        }
      }
    };
    co_await peer->run_on_control(std::move(open_job));

    // Response back over the wire.
    co_await host_.lan().transfer(peer->host_.lan_id(), host_.lan_id(), kCtrlBytes);
    co_await charge_recv(tid, transport, 0, ctx);
    peer_vfd = vfd_out;
    size_out = inode_size_out;
    status = status_out;
    co_return;
  }
}

bool VReadDaemon::hedge_cancelled(const std::shared_ptr<const bool>& cancel) {
  if (!cancel || !*cancel) return false;
  // Injected cancel/completion race: the daemon "misses" the flag for this
  // check, as if the doorbell arrived after the leg completed.
  if (fault::registry().should_fire(fault::points::kHedgeCancelRace)) return false;
  return true;
}

sim::Task VReadDaemon::abort_cancelled(virt::ShmChannel& channel, hw::ThreadId tid,
                                       const virt::ShmRequest& req,
                                       const std::string& block,
                                       std::uint64_t delivered) {
  if (qos_ && delivered > 0) qos_->uncharge_bytes(req.tenant, delivered);
  hedge_cancelled_.inc();
  if (obs_fr_) {
    obs_fr_->record(host_.sim().now(), obs::FlightEventKind::kHedge, block,
                    "cancelled", delivered);
  }
  co_await channel.respond_part(tid, req.id, kVReadErrCancelled, req.vfd,
                                mem::Buffer(), /*last=*/true,
                                /*charge_copy=*/true, req.ctx);
}

sim::Task VReadDaemon::serve_chunks(virt::ShmChannel& channel, hw::ThreadId tid,
                                    const virt::ShmRequest& req, Descriptor& d) {
  const trace::Ctx ctx = req.ctx;
  ReadState st(ReadHints{req.tenant, ctx, req.coalesce, req.readahead, true, req.cancel});
  // The peer tier serves a remote block chunk by chunk, like a local one.
  // Without it — or once an invalidation voided the descriptor's size
  // snapshot, so a local range check could be wrong — the owner pushes the
  // whole window and checks the range itself (§15).
  st.pushed = d.remote && !(peer_dir_ && cache_.enabled() && !config_.direct_read &&
                            !d.peer_size_stale);
  if (!st.pushed && req.offset >= d.inode.size) {
    // Snapshot shorter than the reader expects: fall back to vanilla. (A
    // remote descriptor's size came with the open reply, so the range check
    // the owner would make is answered here without a wire hop.)
    co_await channel.respond_part(tid, req.id, kVReadErrRange, req.vfd, mem::Buffer(),
                                  /*last=*/true, /*charge_copy=*/true, ctx);
    co_return;
  }
  st.end = st.pushed ? req.offset + req.len : std::min(req.offset + req.len, d.inode.size);
  if (obs_ts_) obs_ts_->record_block_access(d.block_name, st.end - req.offset);
  std::uint64_t delivered = 0;
  for (std::uint64_t off = req.offset; off < st.end;) {
    if (off > req.offset && !st.pushed && hedge_cancelled(req.cancel)) {
      // Between chunks only: the checked flag can't claw back a chunk
      // already in the ring, it stops the NEXT one. Any fill this leg led
      // was completed in its own chunk, so aborting strands no waiter.
      // Inside a pushed window the owner checks the flag instead.
      co_await abort_cancelled(channel, tid, req, d.block_name, delivered);
      co_return;
    }
    const std::uint64_t n = std::min(kStreamChunk, st.end - off);
    Chunk c;
    co_await read_chunk(tid, d, off, n, st, c);
    if (c.status.code() == StatusCode::kCancelled) {
      // The owner's cancel marker: only a leg that leads no fill gets one,
      // so there is no coalesce state to unwind — just the byte charge.
      co_await abort_cancelled(channel, tid, req, d.block_name, delivered);
      co_return;
    }
    if (!c.status.ok()) {
      co_await channel.respond_part(tid, req.id, c.status.to_wire(), req.vfd, mem::Buffer(),
                                    /*last=*/true, /*charge_copy=*/true, ctx);
      co_return;
    }
    if (qos_) {
      qos_->account_bytes(req.tenant, c.data.size());
      delivered += c.data.size();
    }
    off += n;
    const bool last = c.last || off >= st.end;
    co_await channel.respond_part(tid, req.id, static_cast<std::int64_t>(c.data.size()),
                                  req.vfd, std::move(c.data), last,
                                  /*charge_copy=*/!c.in_ring, ctx);
    if (last) break;
  }
  if (d.remote) remote_reads_.inc();
}

sim::Task VReadDaemon::push_window(hw::ThreadId tid, std::uint64_t vfd, std::uint64_t offset,
                                   std::uint64_t len, Transport transport, ReadHints h,
                                   hw::HostId dst, bool carried,
                                   sim::Mailbox<Chunk>* arrivals) {
  // A data chunk crosses the wire with its bytes; an error or the cancel
  // marker crosses as a control message. Either rides the same serialized
  // link as the chunks, so it lands strictly after every chunk already
  // sent. A carried reply is handed to the waiting requester, which takes
  // the hop itself; any other rides a hop task, so the next read overlaps
  // the wire.
  const auto send = [&](std::uint64_t bytes, Chunk c) {
    if (carried) {
      c.wire = bytes;
      arrivals->send(std::move(c));
    } else {
      host_.sim().spawn(push_hop(dst, bytes, arrivals, std::move(c), transport, h.ctx));
    }
  };
  const auto fail = [&](Status status) {
    Chunk c;
    c.status = std::move(status);
    c.last = true;
    send(kCtrlBytes, std::move(c));
  };
  auto it = descriptors_.find(vfd);
  if (it == descriptors_.end()) {
    fail(Status(StatusCode::kBadFd, "peer descriptor"));
    co_return;
  }
  // Shared reference: a restart mid-push must not invalidate the
  // descriptor this coroutine is reading through.
  DescriptorPtr pd = it->second;
  if (offset >= pd->inode.size) {
    fail(Status(StatusCode::kRange, pd->block_name));
    co_return;
  }
  ReadState st(h);
  const std::uint64_t end = std::min(offset + len, pd->inode.size);
  for (std::uint64_t off = offset; off < end;) {
    if (off > offset && hedge_cancelled(h.cancel)) {
      fail(Status(StatusCode::kCancelled, pd->block_name));
      co_return;
    }
    const std::uint64_t n = std::min(kStreamChunk, end - off);
    Chunk c;
    co_await read_chunk(tid, *pd, off, n, st, c);
    if (!c.status.ok()) {
      fail(std::move(c.status));
      co_return;
    }
    // Active push: the owner posts the RDMA write (its verb cost is higher
    // than the client side's, paper Fig. 7), or pays the user-space TCP
    // send. The NIC DMA rides asynchronously; the next read overlaps it.
    co_await charge_send(tid, transport, n, h.ctx);
    off += n;
    c.last = off >= end;
    send(n, std::move(c));
  }
}

sim::Task VReadDaemon::push_hop(hw::HostId dst, std::uint64_t bytes,
                                sim::Mailbox<Chunk>* arrivals, Chunk c, Transport transport,
                                trace::Ctx ctx) {
  co_await cross_wire(host_.lan(), host_.lan_id(), dst, bytes, transport, ctx);
  arrivals->send(std::move(c));
}

}  // namespace vread::core
