// The vRead hypervisor daemon (paper §3.2, §4).
//
// One daemon per physical host. It keeps the hash table mapping HDFS
// datanode IDs to their virtual-disk information — a read-only LoopMount
// for datanode VMs on this host, or the peer host's daemon for remote
// datanodes — and serves block reads directly from disk images:
//
//   * local reads go loop-mount -> host page cache -> SSD, with only the
//     loop-device copy on the daemon thread (no guest involvement at all);
//   * remote reads are daemon-to-daemon: RDMA (RoCE) by default — request
//     WR out, the remote side reads locally and RDMA-writes the payload
//     straight into the client's registered shared-memory ring (zero-copy
//     at the receiver) — or a user-space TCP fallback that burns
//     "vRead-net" cycles per segment (Fig. 8);
//   * per-client-VM worker threads drain the shared-memory channels, so
//     daemon CPU time competes for host cores like any other I/O thread.
//
// Namespace staleness is handled exactly as in the paper: HDFS blocks are
// write-once, so the only invalidation needed is a dentry/inode refresh of
// the affected mount when the namenode reports a block create/delete/
// rename (vRead_update), which this daemon subscribes to.
//
// Degradation behavior (this file's fault contract): daemon-to-daemon
// operations retry with bounded exponential backoff when the peer is
// unreachable; RDMA ops fail over to the TCP transport when the link is
// down; a restart loses the descriptor table, and clients holding stale
// vfds get BAD_FD on their next read and transparently re-open or fall
// back — no data is ever lost, only the shortcut.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/block_cache.h"
#include "core/coalesce.h"
#include "core/peer_cache.h"
#include "core/qos.h"
#include "fault/status.h"
#include "fs/loop_mount.h"
#include "hdfs/namenode.h"
#include "hw/disk.h"
#include "hw/worker.h"
#include "metrics/registry.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "virt/host.h"
#include "virt/shm_channel.h"

namespace vread::core {

// ShmRequest opcodes used between libvread and the daemon.
enum class VReadOp : int {
  kOpen = 1,
  kRead = 2,
  kClose = 3,
  kUpdate = 4,
};

// Remote (daemon-to-daemon) transport.
enum class Transport { kRdma, kTcp };

// Control-message size on the wire (request/response headers), for the
// daemon-to-daemon protocol and the peer-cache directory alike.
inline constexpr std::uint64_t kCtrlBytes = 96;

// Point-in-time introspection snapshot of one daemon (DESIGN.md §9).
// Returned by VReadDaemon::stats_snapshot(); rendered by tools/vreadstat.
struct DaemonStats {
  std::string host;
  // Counters (monotonic since daemon construction).
  std::uint64_t opens = 0;
  std::uint64_t reads = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t failed_opens = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t restarts = 0;
  std::uint64_t remote_retries = 0;
  std::uint64_t rdma_failovers = 0;
  std::uint64_t refresh_failures = 0;
  std::uint64_t mount_lookup_hits = 0;
  std::uint64_t mount_lookup_misses = 0;
  // Shared block cache (§10).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  // Cross-VM request coalescing (§12); zero when the stage is disabled.
  std::uint64_t coalesce_hits = 0;         // reads attached to an in-flight fill
  std::uint64_t coalesce_misses = 0;       // reads that led a new fill
  std::uint64_t coalesce_failed_fills = 0; // failures fanned out to waiters
  std::uint64_t coalesce_fill_bytes = 0;   // backing-store bytes served by fills
  std::uint64_t disk_batches = 0;          // sealed disk submission batches
  // Cooperative peer cache tier (§15); zero when the tier is disabled.
  std::uint64_t peer_lookups = 0;        // owner-directory lookups on local miss
  std::uint64_t peer_dir_hits = 0;       // lookups that returned >= 1 holder
  std::uint64_t peer_fetches = 0;        // ranges served from a peer's cache
  std::uint64_t peer_fetch_bytes = 0;    // payload bytes those fetches moved
  std::uint64_t peer_fallbacks = 0;      // directory hits that still hit disk
  std::uint64_t peer_stale_rejects = 0;  // fetched bytes rejected by epoch check
  // Hedged reads (DESIGN.md §16); zero when clients never hedge.
  std::uint64_t hedged_reads = 0;     // kRead ops marked as hedge (second) legs
  std::uint64_t hedge_cancelled = 0;  // losing legs aborted via the cancel flag
  // Levels (instantaneous).
  std::size_t open_descriptors = 0;
  std::size_t local_mounts = 0;
  std::size_t remote_peers = 0;
  std::size_t clients = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_capacity = 0;
  // Shm-channel pipeline depth, summed over this daemon's client channels:
  // requests currently in flight, and the deepest it ever got.
  std::uint64_t shm_inflight = 0;
  std::int64_t shm_inflight_high = 0;
  // Per-tenant QoS accounting (§11); empty when QoS is disabled.
  std::vector<QosTenantStats> tenants;
  // Distribution of kRead service time (request dequeue -> response
  // streamed), as a copy safe to hold after the daemon dies.
  metrics::Histogram read_latency;
  // Per-peer daemon-to-daemon traffic, by transport actually used.
  struct PeerTraffic {
    std::string peer;
    std::string transport;  // "rdma" | "tcp"
    std::uint64_t bytes = 0;
  };
  std::vector<PeerTraffic> peers;
};

// All daemon tuning in one aggregate, accepted at construction. Defaults
// match the paper's chosen design: RDMA remote transport, reads through
// the host file system (not direct image access).
struct DaemonConfig {
  Transport transport = Transport::kRdma;

  // §6 "Direct Read Bypassing the File System in the Host": read the
  // image's blocks directly instead of through the loop-mounted fs. No
  // mount refreshes are needed, but every read pays guest-logical ->
  // guest-physical -> host address translation per page and — crucially —
  // loses the host file-system cache, so every byte comes off the device.
  bool direct_read = false;

  // Per-client-VM worker pool size: N daemon threads drain each channel's
  // request mailbox (FIFO dispatch), so one VM's requests overlap inside
  // the daemon. 1 reproduces the original single-worker layout.
  std::size_t workers = 1;

  // Concurrent in-flight requests per shm channel (request-id demux in
  // ShmChannel); extra guest callers queue FIFO. Applied at attach time.
  std::size_t shm_max_outstanding = 8;

  // Shared block cache capacity in bytes ((datanode, block)-keyed LRU,
  // DESIGN.md §10); 0 disables the cache. Direct-read mode bypasses it
  // regardless — that mode's contract is that every byte comes off the
  // device.
  std::uint64_t cache_bytes = 64ULL << 20;

  // Multi-tenant fairness and overload protection (§11): per-tenant
  // accounting, weighted-DRR dispatch across the worker pool, per-tenant
  // caps and kOverloaded shedding. Enabled by default; defaults reduce to
  // FIFO for a single tenant and never shed.
  QosConfig qos{};

  // Cross-VM request coalescing (DESIGN.md §12): single-flight merging of
  // overlapping (datanode, block, range) fills, with batched disk
  // submission windows. Defaults keep solo workloads byte- and
  // time-identical: a window of 0 merges only submissions issued at the
  // same simulated instant.
  struct CoalesceConfig {
    bool enabled = true;
    // Disk submission batch seals after this many fill reads. 0 = auto:
    // min(8, shm_max_outstanding) — an explicit value larger than the shm
    // outstanding budget is rejected by Validate(), since the ring could
    // never put that many fills in flight at once.
    std::size_t batch_max = 0;
    // ...or this much simulated time after the batch window opened.
    sim::SimTime batch_window = 0;
  };
  CoalesceConfig coalesce{};

  // Cluster-wide cooperative cache tier (DESIGN.md §15): on a local
  // BlockCache miss, consult the shared owner directory and fetch the
  // range from a peer daemon's cache before touching the disk. Requires a
  // live local cache (cache_bytes > 0) and is rejected with direct_read —
  // that mode's contract is every byte off the device. Off by default.
  PeerCacheConfig peer_cache{};

  // SSD variability model (DESIGN.md §16): seeded background-GC windows,
  // write-interference read stalls and per-channel queueing, applied to
  // the host's device at daemon construction. The daemon XORs a hash of
  // its host name into the seed so replicas stall at different times —
  // the window hedged reads exploit. Off by default (constant-service
  // device, bit-identical to the pre-variability model).
  hw::Disk::Variability disk{};

  // Rejects inconsistent knob combinations with a typed kConfig Status
  // (ok = usable). VReadDaemon's constructor throws std::invalid_argument
  // on a non-ok validation, so a daemon can never run on nonsense tuning;
  // vreadsim and the test beds call it up front for a friendlier report.
  Status Validate() const;
};

class VReadDaemon {
 public:
  using Transport = core::Transport;  // call sites read VReadDaemon::Transport

  explicit VReadDaemon(virt::Host& host, DaemonConfig config = {});
  VReadDaemon(const VReadDaemon&) = delete;
  VReadDaemon& operator=(const VReadDaemon&) = delete;

  virt::Host& host() { return host_; }
  const DaemonConfig& config() const { return config_; }
  Transport transport() const { return config_.transport; }

  // --- datanode registry (the daemon's hash table) ---
  // Local datanode VM: loop-mounts its disk image read-only. `dir` is the
  // directory holding the block files inside the guest filesystem — HDFS
  // datanodes use "/current"; other distributed file systems (QFS/GFS
  // chunkservers, §3's generalization claim) register their own layout.
  void register_local_datanode(const std::string& dn_id, fs::DiskImagePtr image,
                               std::string dir = "/current");
  // Datanode on another physical machine: we only store how to reach its
  // host's daemon.
  void register_remote_datanode(const std::string& dn_id, VReadDaemon* remote);
  void unregister_datanode(const std::string& dn_id);
  bool knows_datanode(const std::string& dn_id) const {
    return local_mounts_.count(dn_id) != 0 || remote_peers_.count(dn_id) != 0;
  }

  // Subscribes to block-completion/delete/rename events so locally-hosted
  // datanodes' mounts refresh automatically (paper §3.2 synchronization).
  void subscribe(hdfs::NameNode& nn);

  // Attaches a client VM: allocates its shared-memory channel and spawns
  // the per-VM daemon worker that serves it.
  virt::ShmChannel& attach_client(virt::Vm& client_vm);

  // Crash-recovery drill: a restarted daemon loses its descriptor table
  // (but keeps its registry, re-read from VM configuration at startup).
  // Clients holding stale vfds get BAD_FD on their next read and
  // transparently fall back / re-open — no data is ever lost. In-flight
  // streams drain through their shared descriptor references. The same
  // restart fires spontaneously under the core.daemon.crash fault point.
  void restart() {
    const std::size_t lost = descriptors_.size();
    descriptors_.clear();
    restarts_.inc();
    open_descriptors_g_.set(0);
    if (obs_fr_) {
      obs_fr_->record(host_.sim().now(), obs::FlightEventKind::kRestart,
                      "descriptor_table_lost", "", lost);
    }
  }
  std::size_t open_descriptors() const { return descriptors_.size(); }

  // §6 "Compatibility with VM Migration": when a datanode VM moves to
  // another physical host (shared-storage live migration), both daemons
  // just update their hash tables — the destination mounts the image, the
  // source keeps a peer entry. In-flight descriptors opened through the
  // old topology drain through their held references; new opens follow
  // the new registry.
  static void migrate_datanode(const std::string& dn_id, VReadDaemon& from,
                               VReadDaemon& to, fs::DiskImagePtr image);

  // --- stats ---
  // Scalar accessors read the live registry-backed instruments; the full
  // introspection view (levels, latency distribution, per-peer traffic)
  // comes from stats_snapshot().
  std::uint64_t opens() const { return opens_.value(); }
  std::uint64_t reads() const { return reads_.value(); }
  std::uint64_t bytes_read() const { return bytes_read_.value(); }
  std::uint64_t refreshes() const { return refreshes_.value(); }
  std::uint64_t failed_opens() const { return failed_opens_.value(); }
  std::uint64_t remote_reads() const { return remote_reads_.value(); }
  // Degradation counters (see metrics/fault_stats.h).
  std::uint64_t restarts() const { return restarts_.value(); }
  std::uint64_t remote_retries() const { return remote_retries_.value(); }
  std::uint64_t rdma_failovers() const { return rdma_failovers_.value(); }
  std::uint64_t refresh_failures() const { return refresh_failures_.value(); }

  // Shared block cache (survives restart(): entries are content-keyed and
  // blocks are write-once, so a crash loses descriptors, not cached bytes).
  BlockCache& cache() { return cache_; }
  const BlockCache& cache() const { return cache_; }

  // --- cooperative peer cache tier (DESIGN.md §15) ---
  // Wires this daemon to the cluster's shared owner directory (the cluster
  // builder calls this after attach()). Also hooks the BlockCache removal
  // observer so every eviction unpublishes this daemon from the block's
  // copyset.
  void set_peer_directory(PeerCacheDirectory* dir);
  PeerCacheDirectory* peer_directory() { return peer_dir_; }

  // Copyset invalidation arriving from the directory: drops the cached
  // ranges of (dn, block) — or of the whole datanode when `block` is empty
  // — and forgets their publish epochs. Called by the directory's
  // notification tasks; safe to call when nothing is cached.
  void apply_peer_invalidate(const std::string& dn, const std::string& block);

  // Instantaneous load signal, piggybacked on read completions by
  // replica-aware routing (cluster::ReplicaSelector): requests in flight
  // across this daemon's client channels plus the payload bytes those
  // reads still owe. Cheap enough to sample per completion.
  struct LoadSignal {
    std::uint64_t queue_depth = 0;
    std::uint64_t inflight_bytes = 0;
  };
  LoadSignal load_signal() const {
    LoadSignal s;
    for (const auto& port : clients_) s.queue_depth += port->channel->inflight();
    s.inflight_bytes = inflight_read_bytes_;
    return s;
  }

  // QoS scheduler; nullptr when config_.qos.enabled is false.
  QosScheduler* qos() { return qos_.get(); }
  const QosScheduler* qos() const { return qos_.get(); }

  // Coalescing stage (§12); nullptr when config_.coalesce.enabled is false.
  CoalesceMap* coalescer() { return coalesce_.get(); }
  const CoalesceMap* coalescer() const { return coalesce_.get(); }

  // --- observability (DESIGN.md §14) ---
  // Wires this daemon into the plane: `ts` receives hot-block access
  // feeds from the read paths, `fr` receives flight events (restarts,
  // RDMA->TCP failovers, remote retries, coalesce merges — and, via the
  // QoS scheduler, admission sheds). Both are optional and passive:
  // recording never posts events, so wiring leaves runs bit-identical.
  void set_observer(obs::TimeSeriesRecorder* ts, obs::FlightRecorder* fr) {
    obs_ts_ = ts;
    obs_fr_ = fr;
    if (qos_) qos_->set_flight_recorder(fr);
  }
  obs::FlightRecorder* flight_recorder() { return obs_fr_; }

  DaemonStats stats_snapshot() const;

 private:
  // Host-kernel readahead state for one open file (shared with in-flight
  // async readahead tasks so a close never leaves them dangling).
  struct RaState {
    explicit RaState(sim::Simulation& sim) : event(sim) {}
    std::uint64_t done = 0;          // [0, done) is cache-resident
    std::uint64_t inflight_end = 0;  // end of the async window being read
    sim::Event event;                // set when the in-flight window lands
  };

  struct Descriptor {
    sim::Name dn_id;
    sim::Name block_name;
    bool remote = false;
    // Local: the snapshot inode held open (like an fd holding an inode);
    // shared ownership keeps in-flight descriptors valid across a
    // migration that drops the registry entry.
    fs::Inode inode{};
    std::shared_ptr<fs::LoopMount> mount;
    // Remote: peer daemon + the descriptor on that side.
    VReadDaemon* peer = nullptr;
    std::uint64_t peer_vfd = 0;
    // Remote only: inode.size is a one-time snapshot from the open reply,
    // good enough for the peer tier to answer range checks locally. A
    // peer invalidation for this (dn, block) sets this flag, and the owner
    // pushes the descriptor's windows whole and checks their range for the
    // rest of its life — a refresh may have changed the size, and only a
    // reopen refreshes the snapshot (DESIGN.md §15).
    bool peer_size_stale = false;
    // Sequential-read detection + readahead (the host's mounted-fs
    // readahead the paper's Discussion section credits the design with).
    std::uint64_t seq_pos = 0;
    std::shared_ptr<RaState> ra;
  };
  // Descriptors are shared so a restart() (or migration) can drop the
  // table while in-flight streams keep serving from their own reference.
  using DescriptorPtr = std::shared_ptr<Descriptor>;

  struct ClientPort {
    std::unique_ptr<virt::ShmChannel> channel;
    // Default tenant identity for requests on this channel (the client
    // VM's name); requests may carry their own via ShmRequest::tenant.
    sim::Name tenant;
    // The per-VM daemon worker threads serving this channel (the paper's
    // per-VM worker, times DaemonConfig::workers). With QoS enabled the
    // same threads join the daemon-wide shared pool instead.
    std::vector<hw::ThreadId> tids;
    // Admission-path thread: sheds are answered here so an overloaded
    // tenant's rejections never consume a worker.
    hw::ThreadId adm_tid{};
  };

  // Per-VM worker loop (QoS disabled): drains the channel's request
  // mailbox. With `workers > 1` several loops share one mailbox; its FIFO
  // multi-waiter semantics dispatch each request to exactly one idle
  // worker.
  sim::Task serve(ClientPort& port, hw::ThreadId tid);

  // QoS path: one pump per port moves requests from the channel mailbox
  // through admission control into the scheduler; pool workers dequeue in
  // DRR order. Sheds answer from the port's admission thread.
  sim::Task pump(ClientPort& port);
  sim::Task pool_worker(hw::ThreadId tid);
  sim::Task shed_response(ClientPort& port, std::uint64_t req_id, std::uint64_t vfd,
                          trace::Ctx ctx);

  // Serves one dequeued request (both worker layouts): the daemon-side
  // eventfd wakeup, the injected crash point, then the op itself.
  sim::Task handle(virt::ShmChannel& channel, hw::ThreadId tid, virt::ShmRequest req);

  // --- read serving (DESIGN.md §10 "Read serving") ---
  // Per-request hints carried down the chunk chain: from the ShmRequest
  // (ReadRequest on the guest side), or from the control message that
  // opens an owner's push.
  struct ReadHints {
    sim::Name tenant;       // QoS identity a led fill is charged to
    trace::Ctx ctx;
    bool coalesce = true;   // may join or lead a merged fill (§12)
    bool readahead = true;  // may use the mount's sequential readahead
    // False when the owner's push reads the chunk for a remote requester:
    // the requester already consulted the directory, and a fetch started
    // on the owner's control worker could wait on a peer's control worker
    // that is waiting on ours.
    bool peer = true;
    // The leg's hedge-cancel flag (§16); null when nothing may cancel it.
    std::shared_ptr<const bool> cancel;
  };
  // One chunk's outcome: its bytes, or the status it failed with. RDMA
  // payloads from the owner are written straight into the client's ring
  // (`in_ring`), which skips the daemon's ring copy. The owner's push sends
  // chunks too: `last` ends the push (for a pushed window, the request:
  // the owner clips the window to its inode), and `wire` is what a carried
  // reply still has to cross.
  struct Chunk {
    mem::Buffer data;
    Status status;
    bool in_ring = false;
    bool last = false;
    std::uint64_t wire = 0;
  };
  // The requester's end of one owner push (paper Fig. 7 "active push"):
  // the owner reads its window chunk by chunk and pushes each one the
  // moment it is read, so chunk i+1 is read while chunk i is on the wire.
  struct Push {
    Push(sim::Simulation& sim, Transport t) : arrivals(sim), transport(t) {}
    sim::Mailbox<Chunk> arrivals;
    Transport transport;
    metrics::Counter* from_owner = nullptr;
  };
  // One kRead's state across its chunks.
  struct ReadState {
    explicit ReadState(ReadHints h) : hints(std::move(h)) {}
    ReadHints hints;
    // Request end; not clipped when `pushed` (the owner clips).
    std::uint64_t end = 0;
    // A remote window the owner pushes whole: the peer tier is off, or an
    // invalidation voided the descriptor's size snapshot (§15).
    bool pushed = false;
    // The fill this request registered with (once, however many of its
    // chunks that fill covers), and the fill its push window leads.
    CoalesceMap::FillPtr joined;
    CoalesceMap::FillPtr led;
    // The open push, until its last arrival.
    std::optional<Push> push;
  };

  // The chunk loop: serves every kRead in kStreamChunk pieces from
  // read_chunk, so the disk, the wire, the ring and the guest's copy-out
  // pipeline. It clips the range to the descriptor's size (the owner does
  // that for a pushed window), feeds hot-block accesses, checks the
  // hedge-cancel flag between chunks that are not inside one push,
  // charges QoS bytes, stops at the first failed chunk and writes the ring
  // responses.
  sim::Task serve_chunks(virt::ShmChannel& channel, hw::ThreadId tid,
                         const virt::ShmRequest& req, Descriptor& d);
  // One chunk [off, off+len) of `d` from the first source that has it:
  // this daemon's cache, an in-flight fill (joined) or a new one (led), a
  // copyset holder's cache, then the backing store — the image for a local
  // descriptor, the owner's push for a remote one. The local chain probes
  // the cache before joining a fill; the remote chain joins first. A
  // pushed window skips the cache and the peer tier.
  sim::Task read_chunk(hw::ThreadId tid, Descriptor& d, std::uint64_t off,
                       std::uint64_t len, ReadState& st, Chunk& c);
  // Local backing store: the loop-mounted image through the host page
  // cache, or the raw image in direct mode. Adds the device bytes read
  // synchronously to `disk_bytes` (a led fill's charge).
  sim::Task image_chunk(hw::ThreadId tid, Descriptor& d, std::uint64_t off,
                        std::uint64_t n, const ReadHints& h, Chunk& c,
                        std::uint64_t& disk_bytes);
  // Remote backing store: the first owner step of a request opens a push
  // (one chunk with the peer tier on, the rest of the request otherwise);
  // every step takes the push's next arrival.
  sim::Task owner_chunk(hw::ThreadId tid, const Descriptor& d, std::uint64_t off,
                        std::uint64_t n, ReadState& st, Chunk& c);
  // The owner's side of a push, on its control worker: reads
  // [offset, offset+len) of descriptor `vfd` through its own chain (minus
  // the peer tier), clipped to its inode, and pushes each chunk to `dst`.
  // It checks `h.cancel` between chunks and then sends the cancel marker.
  // `carried` (the tier's one-chunk push) hands each reply to the waiting
  // requester, which takes the wire hop itself (DESIGN.md §10 says why).
  sim::Task push_window(hw::ThreadId tid, std::uint64_t vfd, std::uint64_t offset,
                        std::uint64_t len, Transport transport, ReadHints h, hw::HostId dst,
                        bool carried, sim::Mailbox<Chunk>* arrivals);
  // One wire hop of a push, from this daemon's host to `dst`: the RoCE NIC
  // DMAs the payload, then the arrival is posted to the requester.
  sim::Task push_hop(hw::HostId dst, std::uint64_t bytes, sim::Mailbox<Chunk>* arrivals,
                     Chunk c, Transport transport, trace::Ctx ctx);

  // Cache step: the lookup charge (paid hit or miss), then the lookup;
  // `out` stays empty on a miss.
  sim::Task probe_cache(hw::ThreadId tid, sim::Name dn, sim::Name block,
                        std::uint64_t off, std::uint64_t n, trace::Ctx ctx,
                        mem::Buffer& out);
  // Coalesce step (§12), for a request registered with `st.joined`:
  // waits until [off, off+n) of `st.joined` has landed, or the fill is
  // done, and slices it into `c` (or takes the fill's failure).
  sim::Task take_fill(hw::ThreadId tid, const Descriptor& d, std::uint64_t off,
                      std::uint64_t n, ReadState& st, Chunk& c);
  // Completes a led fill with the chunk's outcome: marks the fan-out,
  // wakes every waiter and splits the backing-store bytes across tenants.
  void finish_fill(hw::ThreadId tid, trace::Ctx ctx, const CoalesceMap::FillPtr& fill,
                   mem::Buffer data, const Status& status, std::uint64_t fill_bytes);
  // Publish-gated insert of fetched bytes: when an invalidation advanced
  // the directory epoch while they were in flight, they are served to this
  // reader (they were valid at `epoch` — read-time semantics) but neither
  // cached nor advertised.
  void cache_if_current(const Descriptor& d, std::uint64_t off, const mem::Buffer& data,
                        std::uint64_t epoch);
  // Daemon-to-daemon transport CPU on THIS daemon's host: the send or
  // receive side of one message carrying `bytes` of payload (0 for a
  // control message). TCP payload copies are recorded as copy spans.
  sim::Task charge_send(hw::ThreadId tid, Transport t, std::uint64_t bytes,
                        trace::Ctx ctx) {
    return charge_net(tid, t, /*send=*/true, bytes, ctx);
  }
  sim::Task charge_recv(hw::ThreadId tid, Transport t, std::uint64_t bytes,
                        trace::Ctx ctx) {
    return charge_net(tid, t, /*send=*/false, bytes, ctx);
  }
  sim::Task charge_net(hw::ThreadId tid, Transport t, bool send, std::uint64_t bytes,
                       trace::Ctx ctx);

  // True when the leg's hedge-cancel flag is set AND the injected
  // cancel/completion race (core.daemon.hedge_cancel_race) does not fire.
  // Consulted between chunks only — a chunk already sent stays.
  bool hedge_cancelled(const std::shared_ptr<const bool>& cancel);
  // Aborts a cancelled losing leg: un-charges the bytes it had already
  // delivered, counts + records the cancellation, and answers the guest
  // with kVReadErrCancelled so the leg coroutine unwinds quietly.
  sim::Task abort_cancelled(virt::ShmChannel& channel, hw::ThreadId tid,
                            const virt::ShmRequest& req, const std::string& block,
                            std::uint64_t delivered);

  // --- local operations (run on `tid`, a daemon-side thread) ---
  sim::Task local_open(hw::ThreadId tid, sim::Name dn_id, sim::Name block_name,
                       std::uint64_t& vfd, Status& status, trace::Ctx ctx = {});
  sim::Task local_refresh(hw::ThreadId tid, const std::string& dn_id);

  // --- remote (daemon-to-daemon) operations, called on a local worker ---
  // `size_out` reports the peer inode's snapshot size (riding the existing
  // reply message), so the requester can chop remote streams at the same
  // points the peer's local path caches at.
  sim::Task remote_open(hw::ThreadId tid, VReadDaemon* peer, sim::Name dn_id,
                        sim::Name block_name, std::uint64_t& peer_vfd,
                        std::uint64_t& size_out, Status& status, trace::Ctx ctx = {});

  // Peer-cache fetch (§15): directory lookup, then up to
  // kPeerFetchAttempts copyset holders are asked for exactly
  // [offset, offset+n) of (dn, block) out of their BlockCaches. On success
  // `out` holds the bytes and `epoch_out` the directory epoch observed at
  // lookup time (the publish gate). Any failure — no holder, holder
  // evicted, holder down, epoch mismatch — leaves `out` untouched and the
  // caller falls back to its disk / owner path.
  sim::Task peer_fetch(hw::ThreadId tid, sim::Name dn, sim::Name block, std::uint64_t offset,
                       std::uint64_t n, trace::Ctx ctx, mem::Buffer& out,
                       std::uint64_t& epoch_out);

  // The transport a remote operation actually uses: the configured one,
  // degraded to TCP when the RDMA-link-down fault point fires. `tid` and
  // `ctx` attribute the fallback marker when a failover happens.
  Transport effective_transport(hw::ThreadId tid, trace::Ctx ctx = {});

  // Runs `job` serialized on this daemon's control worker and waits.
  sim::Task run_on_control(std::function<sim::Task(hw::ThreadId)> job);

  // Streaming packet size for ring/remote reads (matches the datanode's
  // packet scale so vanilla and vRead pipelines compare fairly).
  static constexpr std::uint64_t kStreamChunk = 256 * 1024;
  // Host mounted-fs readahead window for sequential access.
  static constexpr std::uint64_t kReadahead = 1024 * 1024;

  // Ensures [offset, offset+n) of a local descriptor is cache-resident,
  // waiting on / issuing readahead as the access pattern dictates.
  // `allow_readahead=false` forces the random-access arm (fetch exactly
  // the request). `disk_bytes`, when non-null, accumulates the device
  // bytes this call read synchronously — the coalescing leader's
  // fill-byte accounting (async readahead windows are not attributed).
  sim::Task ensure_resident(hw::ThreadId tid, Descriptor& d, std::uint64_t offset,
                            std::uint64_t n, trace::Ctx ctx,
                            bool allow_readahead = true,
                            std::uint64_t* disk_bytes = nullptr);
  sim::Task readahead_task(std::shared_ptr<RaState> ra, std::uint64_t key,
                           std::uint64_t begin, std::uint64_t end, trace::Ctx ctx);

  virt::Host& host_;
  const sim::Name name_;  // host_.name(), interned once
  DaemonConfig config_;
  // Shared block cache ((datanode, block)-keyed LRU; §10). Lives on the
  // daemon so every client VM's streams — and remote peers reading through
  // this daemon — share one copy of each hot range.
  BlockCache cache_;
  struct LocalMount {
    std::shared_ptr<fs::LoopMount> mount;
    std::string dir;  // where this store keeps its block/chunk files
  };
  std::map<std::string, LocalMount> local_mounts_;
  std::map<std::string, VReadDaemon*> remote_peers_;
  std::vector<std::unique_ptr<ClientPort>> clients_;
  // Cooperative peer tier (§15): the cluster's shared owner directory
  // (nullptr = tier off) and, per cached (dn, block), the directory epoch
  // our copy was published under — what a fetch from us reports so the
  // requester can reject bytes a lost invalidation left behind.
  PeerCacheDirectory* peer_dir_ = nullptr;
  std::map<std::pair<std::string, std::string>, std::uint64_t> peer_epochs_;
  // Payload bytes owed by kRead requests currently being served (see
  // load_signal()).
  std::uint64_t inflight_read_bytes_ = 0;
  // Weighted-DRR dispatch + admission control (§11); created at
  // construction when config_.qos.enabled.
  std::unique_ptr<QosScheduler> qos_;
  // Single-flight fill merging (§12); created at construction when
  // config_.coalesce.enabled.
  std::unique_ptr<CoalesceMap> coalesce_;
  // Control worker: mount refreshes + serving reads for remote peers.
  std::unique_ptr<hw::WorkerThread> control_;
  std::map<std::uint64_t, DescriptorPtr> descriptors_;
  std::uint64_t next_vfd_ = 1;
  // Readahead state shared by every descriptor of the same underlying
  // file (keyed like the host page cache), so concurrent streams coalesce
  // on one in-flight disk fill instead of each fetching the same bytes.
  std::map<std::uint64_t, std::weak_ptr<RaState>> ra_states_;

  // Per-peer transfer counter, created lazily on the first byte streamed
  // from that peer (labels: host, peer, transport).
  metrics::Counter& peer_bytes(const VReadDaemon& peer, Transport t);

  // Instruments live on the process-wide registry for the daemon's
  // lifetime (declared after host_ so labels can use host_.name()).
  metrics::MetricGroup metrics_;
  metrics::Counter& opens_;
  metrics::Counter& reads_;
  metrics::Counter& bytes_read_;
  metrics::Counter& refreshes_;
  metrics::Counter& failed_opens_;
  metrics::Counter& remote_reads_;
  metrics::Counter& restarts_;
  metrics::Counter& remote_retries_;
  metrics::Counter& rdma_failovers_;
  metrics::Counter& refresh_failures_;
  metrics::Counter& mount_lookup_hits_;
  metrics::Counter& mount_lookup_misses_;
  metrics::Counter& peer_lookups_;
  metrics::Counter& peer_dir_hits_;
  metrics::Counter& peer_dir_misses_;
  metrics::Counter& peer_fetches_;
  metrics::Counter& peer_fetch_bytes_;
  metrics::Counter& peer_fallbacks_;
  metrics::Counter& peer_stale_rejects_;
  metrics::Counter& hedged_reads_;
  metrics::Counter& hedge_cancelled_;
  metrics::Gauge& open_descriptors_g_;
  metrics::Histogram& read_latency_;
  // Keyed by (peer host name, transport); names order by contents, so the
  // stats snapshot lists peers as before.
  std::map<std::pair<sim::Name, int>, metrics::Counter*> peer_bytes_;

  // Observability plane wiring (set_observer); nullptr = plane off.
  obs::TimeSeriesRecorder* obs_ts_ = nullptr;
  obs::FlightRecorder* obs_fr_ = nullptr;
};

}  // namespace vread::core
