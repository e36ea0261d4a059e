// HDFS client: DFSClient + DFSInputStream with the paper's read interfaces.
//
// `read1` (sequential read of the current block, requests smaller than one
// block) and `read2` (positional read that may span blocks) follow the
// pseudo-code of Algorithms 1 and 2 exactly: look up a vRead descriptor in
// the client-library hash, vRead_open on miss, vRead_read when a valid
// descriptor exists, otherwise the original socket path (`read_buffer` /
// `fetchBlocks`), and vRead_close when a block is fully consumed.
//
// Replica selection prefers a datanode co-located on the client's physical
// host (the HVE-style topology awareness the paper assumes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/route.h"
#include "hdfs/block_reader.h"
#include "hdfs/datanode.h"
#include "hdfs/namenode.h"
#include "mem/buffer.h"
#include "metrics/registry.h"
#include "sim/sync.h"
#include "virt/vm.h"
#include "virt/vnet.h"

namespace vread::hdfs {

class DfsInputStream;
class DfsOutputStream;

// Hedged reads (DESIGN.md §16): a block-range read that is still running
// after an adaptive delay fires a second leg against another replica; the
// first leg to complete wins, the loser is cancelled at its next chunk
// boundary and its delivered bytes are un-charged daemon-side. The delay
// adapts per primary route: it tracks a configurable quantile of that
// route's observed hedged-read latencies, so hedges fire only for reads
// already in the route's tail.
struct HedgeConfig {
  bool enabled = false;

  // The hedge fires when the primary leg is still running after this
  // percentile (0-100) of the route's completion-latency history.
  double quantile = 95.0;

  // Clamp on the adaptive delay. `max_delay` is also used verbatim until
  // the route has `warmup` samples (cold routes hedge conservatively).
  sim::SimTime min_delay = sim::us(500);
  sim::SimTime max_delay = sim::ms(20);
  std::uint64_t warmup = 8;
};

class DfsClient {
 public:
  // Placement policy: datanode ids (pipeline order) for block `index`.
  using Placement = std::function<std::vector<std::string>(std::uint64_t index)>;

  DfsClient(virt::Vm& vm, NameNode& nn, virt::VirtualNetwork& net)
      : vm_(vm),
        nn_(nn),
        net_(net),
        vread_fallback_reads_(metrics_.counter(
            "vread_client_fallback_reads_total", {{"vm", vm.name()}},
            "Reads served by sockets after a vRead failure")),
        vread_cooldowns_(metrics_.counter("vread_client_cooldowns_total",
                                          {{"vm", vm.name()}},
                                          "Times the client entered a probe cooldown")),
        vread_reprobes_(metrics_.counter("vread_client_reprobes_total",
                                         {{"vm", vm.name()}},
                                         "Cooldown expiries that re-probed vRead")),
        vread_suppressed_(metrics_.counter("vread_client_suppressed_total",
                                           {{"vm", vm.name()}},
                                           "Opens skipped during a cooldown")),
        vread_overloaded_(metrics_.counter(
            "vread_client_overloaded_total", {{"vm", vm.name()}},
            "vRead calls shed by daemon admission control (after library retries)")),
        reads_vread_(metrics_.counter("vread_client_reads_total",
                                      {{"path", "vread"}, {"vm", vm.name()}},
                                      "Block-range reads by the path that served them")),
        reads_socket_(metrics_.counter("vread_client_reads_total",
                                       {{"path", "socket"}, {"vm", vm.name()}},
                                       "Block-range reads by the path that served them")),
        reads_short_circuit_(metrics_.counter(
            "vread_client_reads_total", {{"path", "short-circuit"}, {"vm", vm.name()}},
            "Block-range reads by the path that served them")),
        vfd_hits_(metrics_.counter("vread_client_vfd_cache_hits_total",
                                   {{"vm", vm.name()}},
                                   "Reads finding a cached vRead descriptor")),
        vfd_misses_(metrics_.counter("vread_client_vfd_cache_misses_total",
                                     {{"vm", vm.name()}},
                                     "Reads needing a fresh vRead_open")),
        vfd_cache_g_(metrics_.gauge("vread_client_vfd_cache_size", {{"vm", vm.name()}},
                                    "Descriptors currently cached")),
        route_same_host_(metrics_.counter(
            "vread_route_choices_total", {{"tier", "same-host"}, {"vm", vm.name()}},
            "Replica selections by path-cost tier of the chosen replica")),
        route_same_rack_(metrics_.counter(
            "vread_route_choices_total", {{"tier", "same-rack"}, {"vm", vm.name()}},
            "Replica selections by path-cost tier of the chosen replica")),
        route_cross_rack_(metrics_.counter(
            "vread_route_choices_total", {{"tier", "cross-rack"}, {"vm", vm.name()}},
            "Replica selections by path-cost tier of the chosen replica")),
        route_overload_avoided_(metrics_.counter(
            "vread_route_overload_avoided_total", {{"vm", vm.name()}},
            "Selections that skipped an overloaded replica for a healthy one")),
        route_feedback_(metrics_.counter(
            "vread_route_feedback_reports_total", {{"vm", vm.name()}},
            "Daemon load reports piggybacked on read completions")),
        route_cross_rack_bytes_(metrics_.counter(
            "vread_route_cross_rack_bytes_total", {{"vm", vm.name()}},
            "Payload bytes this client pulled from cross-rack replicas")),
        hedge_launched_(metrics_.counter(
            "vread_hedge_launched_total", {{"vm", vm.name()}},
            "Hedge legs actually dispatched after the adaptive delay")),
        hedge_wins_(metrics_.counter(
            "vread_hedge_wins_total", {{"vm", vm.name()}},
            "Hedged reads where the second leg completed first")),
        hedge_averted_(metrics_.counter(
            "vread_hedge_averted_total", {{"vm", vm.name()}},
            "Hedge timers that expired after the primary had already finished")),
        hedge_wasted_bytes_(metrics_.counter(
            "vread_hedge_wasted_bytes_total", {{"vm", vm.name()}},
            "Loser-leg payload bytes delivered anyway (cancel raced completion)")) {}
  DfsClient(const DfsClient&) = delete;
  DfsClient& operator=(const DfsClient&) = delete;

  // Installs the vRead shortcut (nullptr reverts to vanilla HDFS).
  void set_block_reader(BlockReader* reader) { reader_ = reader; }

  // Degradation policy: after a vRead open failure or a read failure that
  // exhausted the library's retries, the client stops probing the shortcut
  // for this cooldown window — instead of paying a doomed daemon round
  // trip on every read — and re-probes when it expires. Stale-descriptor
  // failures (daemon restart, snapshot moved) do NOT start a cooldown: an
  // immediate re-open is expected to succeed. Descriptors already cached
  // keep being used during a cooldown.
  void set_vread_fallback_cooldown(sim::SimTime t) { vread_fallback_cooldown_ = t; }
  sim::SimTime vread_fallback_cooldown() const { return vread_fallback_cooldown_; }

  // Degradation counters (see metrics/fault_stats.h).
  std::uint64_t vread_fallback_reads() const { return vread_fallback_reads_.value(); }
  std::uint64_t vread_cooldowns() const { return vread_cooldowns_.value(); }
  std::uint64_t vread_reprobes() const { return vread_reprobes_.value(); }
  std::uint64_t vread_suppressed() const { return vread_suppressed_.value(); }
  // Shed-by-admission-control failures that reached this client (each one
  // already burned the library's full retry/backoff budget).
  std::uint64_t vread_overloaded() const { return vread_overloaded_.value(); }

  // Path-taken counters: which mechanism ultimately served each
  // block-range read (Algorithms 1-2 decide per read).
  std::uint64_t vread_path_reads() const { return reads_vread_.value(); }
  std::uint64_t socket_path_reads() const { return reads_socket_.value(); }
  std::uint64_t short_circuit_reads() const { return reads_short_circuit_.value(); }
  // Descriptor-hash effectiveness.
  std::uint64_t vfd_cache_hits() const { return vfd_hits_.value(); }
  std::uint64_t vfd_cache_misses() const { return vfd_misses_.value(); }

  // HDFS Short-Circuit Local Reads (HDFS-2246/HDFS-347, the paper's §2.2
  // first alternative): when the client process runs in the SAME OS as the
  // datanode, read the block file directly from the local filesystem,
  // bypassing the datanode process and the socket. Only applies to blocks
  // whose replica lives in this client's own VM — which is precisely why
  // the paper rejects it for virtual Hadoop (separated client/datanode VMs
  // never qualify, and packing them into one VM penalizes everything else).
  void set_short_circuit(bool on) { short_circuit_ = on; }

  // Positional-read fan-out: a pread spanning several blocks issues up to
  // this many per-block reads concurrently (results are reassembled in
  // order). 1 restores the strictly sequential Algorithm 2 loop. Applies
  // uniformly to every path a part may take (vRead, socket, short-circuit).
  void set_pread_parallelism(std::size_t n) { pread_parallelism_ = n == 0 ? 1 : n; }

  virt::Vm& vm() { return vm_; }
  NameNode& namenode() { return nn_; }
  virt::VirtualNetwork& net() { return net_; }

  // Writes `data` as a new HDFS file, streaming block-sized chunks through
  // the replication pipeline chosen by `placement`.
  sim::Task write_file(const std::string& path, const mem::Buffer& data,
                       Placement placement, std::uint64_t block_size = kDefaultBlockSize);

  // Creates a file for streaming writes (the DFSOutputStream path): data
  // is buffered and flushed block-by-block through the replication
  // pipeline; close() finalizes the last partial block.
  sim::Task create(const std::string& path, Placement placement,
                   std::uint64_t block_size, std::unique_ptr<DfsOutputStream>& out);

  // Default block placement (HDFS rack/host awareness, HVE-style): first
  // replica on a datanode co-located with this client's physical host when
  // one exists, remaining replicas rotating over the other datanodes.
  Placement default_placement(int replication = 1);

  // Opens a file for reading; blocks metadata is fetched from the namenode.
  sim::Task open(const std::string& path, std::unique_ptr<DfsInputStream>& out);

  // Deletes a file: namenode metadata goes away immediately (readers get
  // HdfsError), block files are garbage-collected lazily by datanodes, and
  // the delete events refresh every vRead mount (paper §3.2: "the same
  // thing happens for a block delete or rename").
  sim::Task remove(const std::string& path);

  // Replica-aware routing (docs/TOPOLOGY.md): an installed selector ranks
  // candidate replicas by path-cost tier and per-daemon load feedback.
  // Non-owning — apps::Cluster typically shares one selector (and thus one
  // feedback table) across all its clients. nullptr (the default) keeps
  // the pre-topology behavior exactly.
  void set_route(cluster::ReplicaSelector* selector) { selector_ = selector; }
  cluster::ReplicaSelector* route() { return selector_; }

  // Samples the serving daemon's load at read completion (models the
  // zero-wire-cost piggyback — the signal rides the completion message).
  using LoadProbe = std::function<cluster::DaemonLoad(const std::string& dn_id)>;
  void set_load_probe(LoadProbe probe) { load_probe_ = std::move(probe); }

  // Path-cost tier of replica `dn` relative to this client's host.
  cluster::PathTier replica_tier(sim::Name dn);

  // Hedged-read policy (off by default; see HedgeConfig).
  void set_hedge(HedgeConfig hc) { hedge_ = hc; }
  const HedgeConfig& hedge() const { return hedge_; }
  // Hedge observability (client side; the daemon counts leg aborts).
  std::uint64_t hedge_launched() const { return hedge_launched_.value(); }
  std::uint64_t hedge_wins() const { return hedge_wins_.value(); }
  std::uint64_t hedge_averted() const { return hedge_averted_.value(); }
  std::uint64_t hedge_wasted_bytes() const { return hedge_wasted_bytes_.value(); }

  // Picks the replica to read. Without a selector: co-located datanode VM
  // first, else the first location. With one: the selector's policy.
  sim::Name choose_replica(const BlockInfo& blk);

  // Vanilla path: one-shot block-range fetch over a fresh connection
  // (Algorithm 2's fetchBlocks).
  sim::Task fetch_block_range(const BlockInfo& blk, const std::string& datanode_id,
                              std::uint64_t offset, std::uint64_t len, mem::Buffer& out,
                              trace::Ctx ctx = {});

 private:
  friend class DfsInputStream;
  friend class DfsOutputStream;

  // Streams one finalized block through the replication pipeline and
  // registers it with the namenode (+ vRead_update for every replica).
  sim::Task write_block(const std::string& path, std::vector<std::string> pipeline,
                        const mem::Buffer& data);

  // Cooldown gate for NEW vRead opens (cached descriptors bypass it).
  // Expiry counts as a re-probe.
  bool vread_probe_allowed() {
    if (fallback_until_ == 0) return true;
    if (vm_.host().sim().now() < fallback_until_) return false;
    fallback_until_ = 0;
    vread_reprobes_.inc();
    return true;
  }
  void enter_vread_cooldown() {
    if (vread_fallback_cooldown_ == 0) return;
    fallback_until_ = vm_.host().sim().now() + vread_fallback_cooldown_;
    vread_cooldowns_.inc();
  }

  // The libvread descriptor hash (block name -> vfd), shared by all
  // streams of this client as in the prototype's user-level library.
  // Pointer-hashed by interned name; looked up, never iterated.
  std::unordered_map<sim::Name, std::uint64_t, sim::Name::Hash> vfd_hash_;

  // Cached datanode connections for positional reads (one per datanode,
  // serialized: the data-transfer protocol is one request at a time).
  struct CachedConn {
    virt::TcpSocket sock;
    std::unique_ptr<sim::Semaphore> mutex;
  };
  std::unordered_map<std::string, CachedConn> pread_conns_;

  // Reports a read completion to the installed selector; no-op without one.
  void route_feedback(sim::Name dn, std::uint64_t bytes);
  // Counts a kOverloaded status that got past the library's retries and
  // reports it to the selector, if any; other statuses are ignored.
  void note_overload(const Status& st, sim::Name dn);
  // Stores (`vfd` set) or drops a block's descriptor; the size gauge follows.
  void update_vfd(sim::Name blk, std::optional<std::uint64_t> vfd);
  // Short-circuit reads are on and a replica of `blk` lives in this VM.
  bool short_circuits(const BlockInfo& blk) const;

  // Read steps shared by every path. The vRead and short-circuit paths pay
  // the lean per-byte processing (no protocol framing or checksums); the
  // socket path pays the full HDFS one in recv_block_bytes.
  sim::Task lean_processing(std::uint64_t bytes, trace::Ctx ctx);
  // vRead_read of [off, off+len) through `vfd`, then the lean processing.
  sim::Task vread_leg(std::uint64_t vfd, std::uint64_t off, std::uint64_t len,
                      const ReadRequest& opts, trace::Ctx ctx, mem::Buffer& out,
                      Status& st);
  // Asks `dn` for [offset, offset+len) of `blk`; `actual` is the byte count
  // it will stream. Throws HdfsError when `dn` lacks the block.
  sim::Task request_block(virt::TcpSocket conn, const BlockInfo& blk, const std::string& dn,
                          std::uint64_t offset, std::uint64_t len, trace::Ctx ctx,
                          std::uint64_t& actual);
  sim::Task recv_block_bytes(virt::TcpSocket conn, std::uint64_t n, mem::Buffer& out,
                             trace::Ctx ctx);

  // Hedging internals (DESIGN.md §16). The per-route latency histogram
  // feeds the adaptive delay; the alternate replica is the cheapest-tier
  // non-primary location (chosen WITHOUT consulting the route selector, so
  // hedging never perturbs the selector's rng/feedback state).
  metrics::Histogram& hedge_route_latency(sim::Name dn);
  sim::SimTime hedge_delay(sim::Name dn);
  // The empty name when no other location exists.
  sim::Name hedge_replica(const BlockInfo& blk, sim::Name primary);

  virt::Vm& vm_;
  NameNode& nn_;
  virt::VirtualNetwork& net_;
  BlockReader* reader_ = nullptr;
  bool short_circuit_ = false;
  std::size_t pread_parallelism_ = 4;
  cluster::ReplicaSelector* selector_ = nullptr;
  LoadProbe load_probe_;

  // Degradation state.
  sim::SimTime fallback_until_ = 0;                     // 0 = shortcut healthy
  sim::SimTime vread_fallback_cooldown_ = sim::ms(50);  // 0 disables cooldowns

  // Hedging state: policy plus the per-route latency histogram cache
  // (pointers into metrics_, registered lazily per datanode route).
  HedgeConfig hedge_{};
  std::unordered_map<sim::Name, metrics::Histogram*, sim::Name::Hash> hedge_lat_;

  // Registry-backed instruments (labels carry the client VM's name).
  metrics::MetricGroup metrics_;
  metrics::Counter& vread_fallback_reads_;
  metrics::Counter& vread_cooldowns_;
  metrics::Counter& vread_reprobes_;
  metrics::Counter& vread_suppressed_;
  metrics::Counter& vread_overloaded_;
  metrics::Counter& reads_vread_;
  metrics::Counter& reads_socket_;
  metrics::Counter& reads_short_circuit_;
  metrics::Counter& vfd_hits_;
  metrics::Counter& vfd_misses_;
  metrics::Gauge& vfd_cache_g_;
  metrics::Counter& route_same_host_;
  metrics::Counter& route_same_rack_;
  metrics::Counter& route_cross_rack_;
  metrics::Counter& route_overload_avoided_;
  metrics::Counter& route_feedback_;
  metrics::Counter& route_cross_rack_bytes_;
  metrics::Counter& hedge_launched_;
  metrics::Counter& hedge_wins_;
  metrics::Counter& hedge_averted_;
  metrics::Counter& hedge_wasted_bytes_;
};

// Streaming writer for one HDFS file (the paper's DFSOutputStream, whose
// append path fires vRead_update on every completed block).
class DfsOutputStream {
 public:
  DfsOutputStream(DfsClient& client, std::string path, DfsClient::Placement placement,
                  std::uint64_t block_size)
      : client_(client),
        path_(std::move(path)),
        placement_(std::move(placement)),
        block_size_(block_size) {}

  // Appends `data`; full blocks flush through the pipeline as they fill.
  sim::Task write(const mem::Buffer& data);

  // Flushes the final partial block. Must be called exactly once.
  sim::Task close();

  std::uint64_t bytes_written() const { return total_; }
  bool closed() const { return closed_; }

 private:
  DfsClient& client_;
  std::string path_;
  DfsClient::Placement placement_;
  std::uint64_t block_size_;
  std::uint64_t block_index_ = 0;
  std::uint64_t total_ = 0;
  mem::Buffer pending_;
  bool closed_ = false;
};

// Sequential/positional reader over one HDFS file.
class DfsInputStream {
 public:
  DfsInputStream(DfsClient& client, std::string path, std::vector<BlockInfo> blocks);

  // Unified read surface (docs/API.md §ReadRequest): one struct carries
  // position, length, tenant, fan-out and the coalesce/readahead hints.
  // `req.offset == ReadRequest::kCurrentPos` reads at the stream position
  // and advances it (read1 semantics); an explicit offset is a positional
  // read (read2) that leaves the cursor alone. `res.data` is empty at EOF
  // and may be short at end of file; HDFS-level failures (deleted file,
  // every replica dead) still surface as HdfsError, exactly like the old
  // overloads, so the shims below behave identically.
  sim::Task read(const ReadRequest& req, ReadResult& res);

  // read1 compat shim: reads up to `len` bytes at the current position
  // (may span block boundaries by looping). `out` is empty at EOF.
  sim::Task read(std::uint64_t len, mem::Buffer& out) {
    ReadRequest req;
    req.len = len;
    ReadResult res;
    co_await read(req, res);
    out = std::move(res.data);
  }

  // read2 compat shim: positional read (does not move the stream position).
  sim::Task pread(std::uint64_t position, std::uint64_t len, mem::Buffer& out) {
    ReadRequest req;
    req.offset = position;
    req.len = len;
    ReadResult res;
    co_await read(req, res);
    out = std::move(res.data);
  }

  void seek(std::uint64_t pos);
  std::uint64_t size() const { return size_; }

  // Closes any open block stream and vRead descriptors.
  sim::Task close();

 private:
  struct BlockStream {
    virt::TcpSocket sock;
    std::uint64_t block_id = 0;
    std::uint64_t next_offset = 0;  // next byte (in-block) the stream yields
    std::uint64_t end_offset = 0;
  };

  const BlockInfo* block_at(std::uint64_t pos) const;

  // The two halves of the unified read(): sequential (cursor-advancing
  // read1 loop) and positional (Algorithm 2 with optional block fan-out).
  sim::Task read_sequential(const ReadRequest& req, ReadResult& res);
  sim::Task read_positional(const ReadRequest& req, ReadResult& res);

  // Reads [off, off+len) of one block into `out` per Algorithm 1/2.
  // With hedging off (or inapplicable: <2 replicas, short-circuit-local,
  // no BlockReader) this forwards straight to the impl and is
  // byte-identical to the pre-hedging client; otherwise it runs the
  // two-leg race described in DESIGN.md §16.
  sim::Task read_block_range(const BlockInfo& blk, std::uint64_t off, std::uint64_t len,
                             mem::Buffer& out, bool sequential, const ReadRequest& opts);

  // The original Algorithm 1/2 body against replica `dn`: vRead first
  // (descriptor hash), else socket with replica failover. `opts` carries
  // the per-read options (tenant + coalesce/readahead hints) down to the
  // BlockReader. A hedged primary leg passes `cancelled`, which is set when
  // the daemon aborted on the race's cancel flag (plain reads: nullptr).
  sim::Task read_block_range_impl(const BlockInfo& blk, std::uint64_t off,
                                  std::uint64_t len, mem::Buffer& out, bool sequential,
                                  const ReadRequest& opts, sim::Name dn, bool* cancelled);

  // Shared state of one hedged race. Heap-allocated and shared_ptr-held
  // by every leg: the losing leg outlives the wrapper's frame, so the race
  // also keeps the block the legs read.
  struct HedgeRace {
    HedgeRace(sim::Simulation& sim, const BlockInfo& b) : sem(sim, 0), blk(b) {}
    sim::Semaphore sem;  // released once per leg completion + once by the timer
    BlockInfo blk;
    bool cancel = false;  // the legs' ReadRequest::cancel points here
    enum HedgeState { kPending, kSkipped, kLaunched };
    HedgeState hedge_state = kPending;
    bool finished[2] = {false, false};   // slot 0 = primary, 1 = hedge
    bool ok[2] = {false, false};
    int winner = -1;
    mem::Buffer buf[2];
    std::exception_ptr err[2];
  };
  using HedgeRacePtr = std::shared_ptr<HedgeRace>;

  sim::Task hedge_primary_leg(std::uint64_t off, std::uint64_t len, ReadRequest opts,
                              sim::Name dn, HedgeRacePtr race);
  sim::Task hedge_second_leg(std::uint64_t off, std::uint64_t len, ReadRequest opts,
                             sim::Name dn, HedgeRacePtr race);
  sim::Task hedge_timer(std::uint64_t off, std::uint64_t len, ReadRequest opts,
                        sim::Name dn, sim::SimTime delay, HedgeRacePtr race);
  // The one epilogue of the three hedge tasks. A leg (`slot` 0 = primary,
  // 1 = second) marks itself finished and counts its own waste if it
  // completed after the other leg won; the timer passes -1. Each then
  // wakes the race and releases its in-flight slot.
  void end_hedge_task(HedgeRace& race, int slot);

  // One part of a pread: Algorithm 2's per-block read with a bounded
  // retry. The output buffer is reset before every attempt, so a retry can
  // never deliver bytes twice; the final exception, if any, lands in
  // `err`. The serial loop awaits it inline (no gate, no latch); a
  // fanned-out pread spawns it, and it then releases `gate` and counts
  // down `latch`, so one failed block never poisons its siblings.
  sim::Task read_part(const BlockInfo& blk, std::uint64_t off, std::uint64_t len,
                      const ReadRequest& opts, mem::Buffer& out, std::exception_ptr& err,
                      sim::Semaphore* gate, sim::Latch* latch);

  // Per-part retry budget: a first failure (e.g. the daemon shed the read
  // mid-fan-out, or a replica answered "missing" transiently) gets exactly
  // one fresh attempt.
  static constexpr int kPreadPartAttempts = 2;

  // Vanilla sequential path: keeps a block stream open and consumes it.
  // Reads from replica `dn`; throws HdfsError if that replica lacks the
  // block (the caller fails over).
  sim::Task read_from_stream(const BlockInfo& blk, const std::string& dn,
                             std::uint64_t off, std::uint64_t len, mem::Buffer& out,
                             trace::Ctx ctx);
  void drop_stream();

  DfsClient& client_;
  std::string path_;
  std::vector<BlockInfo> blocks_;
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
  BlockStream stream_;

  // In-flight hedge legs/timers. close() drains them so a losing leg
  // never outlives the stream its coroutine frame points into.
  std::uint64_t hedge_inflight_ = 0;
  std::unique_ptr<sim::Semaphore> hedge_drain_;
};

}  // namespace vread::hdfs
