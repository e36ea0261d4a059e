// Ablation: cluster-wide cooperative block cache (DESIGN.md §15).
//
// N reader hosts cyclically re-scan a shared working set whose only
// replica lives on host1, behind a 60 MB/s disk and a 2.5 Gbps tenant
// uplink. Every private cache is smaller than the working set and the
// scans are cyclic, so LRU hit rates collapse to ~0 and the baseline
// serializes on the owner's disk. The peer tier turns the same private
// caches into one cooperative pool: rotated scan offsets leave each
// reader holding a different tail of the file, the union covers the
// working set, and after the first population pass nearly every miss is
// served from a peer's cache over the wire instead of the owner's disk.
//
// Three arms:
//   1. reader-count sweep (2/4/5), tier on vs off — aggregate MBps,
//      speedup, summed hw::Disk bytes/read-counts, peer-fetched bytes
//      (gates: >= 2x MBps and >= 5x fewer disk reads at 4+ readers);
//   2. seeded chaos — populate, then rewrite every block with lost
//      invalidations + stale directory replies + peer-down armed; every
//      re-read byte is verified against the NEW content (zero stale
//      bytes) and the epoch backstop's reject counter must be exercised;
//   3. FlowSim cross-check — the flow-level peer-tier approximation on a
//      32-host fabric, tier on vs off.
//
// Every stream verifies its bytes; nothing below hard-codes a hit:
// disk bytes come from the hw::Disk counters and peer traffic from the
// daemons' stats snapshots.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "cluster/flowsim.h"
#include "core/peer_cache.h"
#include "core/vread_daemon.h"
#include "fault/fault.h"
#include "hdfs/datanode.h"
#include "hdfs/dfs_client.h"
#include "mem/buffer.h"
#include "sim/sync.h"
#include "sim/time.h"

namespace vread::bench {
namespace {

constexpr std::uint64_t kFileBytes = 24ULL * 1024 * 1024;  // 6 x 4 MiB blocks
constexpr std::uint64_t kSeed = 77;
constexpr std::uint64_t kNewSeed = 78;
constexpr std::uint64_t kChunk = 1ULL * 1024 * 1024;
constexpr std::size_t kRounds = 3;
// Per-daemon cache: a third of the working set. A cyclic scan through
// 24 MiB with an 8 MiB LRU hits nothing (the block evicted is always the
// one needed next), which is exactly the regime where cooperation pays:
// N rotated readers jointly hold min(N * 8, 24) MiB.
constexpr std::uint64_t kCacheBytes = 8ULL * 1024 * 1024;

// One reader stream on its own client VM: cyclic scan of "/data" starting
// at `start`, `rounds` full passes, verifying every chunk against the
// deterministic contents; mismatched bytes are tallied, not just flagged,
// because the chaos arm's acceptance is "zero stale bytes". Free function
// with by-value strings: spawned coroutines start lazily, so reference
// parameters to temporaries would dangle.
sim::Task scan_stream(Cluster* c, std::string vm, std::uint64_t start,
                      std::uint64_t seed, std::size_t rounds,
                      std::uint64_t* bad_bytes, sim::Latch* done) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await c->client(vm)->open("/data", in);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::uint64_t i = 0; i < kFileBytes / kChunk; ++i) {
      const std::uint64_t off = (start + i * kChunk) % kFileBytes;
      mem::Buffer b;
      co_await in->pread(off, kChunk, b);
      if (b.size() != kChunk ||
          b.checksum() !=
              mem::Buffer::deterministic(seed, off, kChunk).checksum()) {
        *bad_bytes += kChunk;
      }
    }
  }
  co_await in->close();
  done->count_down();
}

// Rotated offsets: reader i starts i/N of the way into the file (chunk
// aligned), so concurrent scans touch different blocks — no accidental
// lockstep coalescing propping up the baseline, and each reader's LRU
// tail covers a different slice of the working set for the peer tier.
sim::Task spawn_fleet(Cluster* c, std::size_t readers, std::uint64_t seed,
                      std::size_t rounds, std::uint64_t* bad_bytes) {
  sim::Latch done(c->sim(), readers);
  for (std::size_t i = 0; i < readers; ++i) {
    const std::uint64_t start = (i * (kFileBytes / readers)) / kChunk * kChunk;
    c->sim().spawn(scan_stream(c, "c" + std::to_string(i + 1), start, seed,
                               rounds, bad_bytes, &done));
  }
  co_await done.wait();
}

// host1 owns the only replica; each reader gets its own host + client VM
// (a shared client VM would serialize every stream through one channel).
std::unique_ptr<Cluster> make_fleet(std::size_t readers, bool peer_on) {
  ClusterConfig cfg;
  cfg.block_size = 4ULL * 1024 * 1024;
  cfg.cores_per_host = 8;
  // Oversubscribed tenant uplink + slow owner disk: the two bottlenecks
  // the cooperative tier routes around.
  cfg.link.bw_gbps = 2.5;
  cfg.disk.read_bw_mbps = 60.0;
  // A 4 MiB host page cache: the owner's repeat reads genuinely hit the
  // 60 MB/s disk (an 8 GiB default would swallow the whole working set
  // and hide exactly the reads the peer tier exists to save).
  cfg.page_cache_bytes = 4ULL * 1024 * 1024;
  cfg.racks.hosts_per_rack = 3;
  auto c = std::make_unique<Cluster>(cfg);
  c->add_host("host1");
  c->add_vm("host1", "nn");
  c->create_namenode("nn");
  c->add_datanode("host1", "datanode1");
  for (std::size_t i = 0; i < readers; ++i) {
    const std::string host = "host" + std::to_string(i + 2);
    std::string vm = "c";
    vm += std::to_string(i + 1);
    c->add_host(host);
    c->add_vm(host, vm);
    c->add_client(vm);
  }
  c->preload_file("/data", kFileBytes, kSeed, {{"datanode1"}});
  core::DaemonConfig dc;
  dc.workers = 4;  // streams must overlap in service on every daemon
  dc.transport = core::Transport::kTcp;
  dc.cache_bytes = kCacheBytes;
  dc.peer_cache.enabled = peer_on;
  c->enable_vread(dc);
  c->drop_all_caches();
  return c;
}

std::uint64_t fleet_disk_bytes(Cluster& c, std::size_t readers) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= readers; ++i) {
    total += c.host("host" + std::to_string(i + 1))->disk().bytes_read();
  }
  return total;
}

std::uint64_t fleet_disk_reads(Cluster& c, std::size_t readers) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= readers; ++i) {
    total += c.host("host" + std::to_string(i + 1))->disk().read_count();
  }
  return total;
}

struct FleetOutcome {
  double mbps = 0.0;              // verified bytes / elapsed sim time
  double disk_mb = 0.0;           // summed hw::Disk bytes actually read
  std::uint64_t disk_reads = 0;   // summed hw::Disk read submissions
  double peer_mb = 0.0;           // bytes served from peer caches
  std::uint64_t dir_hits = 0;     // directory lookups with >= 1 holder
  std::uint64_t fallbacks = 0;    // directory hits that still hit disk
  bool ok = true;
};

FleetOutcome run_fleet(std::size_t readers, bool peer_on) {
  auto c = make_fleet(readers, peer_on);
  FleetOutcome r;
  std::uint64_t bad = 0;
  const std::uint64_t d0 = fleet_disk_bytes(*c, readers);
  const std::uint64_t n0 = fleet_disk_reads(*c, readers);
  const sim::SimTime t0 = c->sim().now();
  c->run_job(spawn_fleet(c.get(), readers, kSeed, kRounds, &bad));
  const double secs = sim::to_seconds(c->sim().now() - t0);
  const std::uint64_t bytes = readers * kRounds * kFileBytes;
  r.mbps = secs > 0 ? static_cast<double>(bytes) / 1e6 / secs : 0.0;
  r.disk_mb = static_cast<double>(fleet_disk_bytes(*c, readers) - d0) / 1e6;
  r.disk_reads = fleet_disk_reads(*c, readers) - n0;
  for (std::size_t i = 0; i < readers; ++i) {
    const core::DaemonStats s =
        c->daemon("host" + std::to_string(i + 2))->stats_snapshot();
    r.peer_mb += static_cast<double>(s.peer_fetch_bytes) / 1e6;
    r.dir_hits += s.peer_dir_hits;
    r.fallbacks += s.peer_fallbacks;
  }
  r.ok = bad == 0;
  return r;
}

// ---- chaos arm ----

sim::Task idle_for(Cluster* c, sim::SimTime t) { co_await c->sim().delay(t); }

// Rewrites every block of "/data" in place with kNewSeed content, then
// preloads a one-block poke file on the same datanode: its complete_block
// event fans the refresh out to the subscribed daemons, which invalidate
// their caches and the copyset directory (the same trigger the coherence
// tests use).
void rewrite_file_blocks(Cluster& c, std::uint64_t new_seed) {
  hdfs::DataNode* dn = c.datanode("datanode1");
  for (const hdfs::BlockInfo& b : c.namenode().all_blocks("/data")) {
    dn->vm().fs().remove(hdfs::DataNode::block_path(b.name));
    dn->preload_block(
        b.name, mem::Buffer::deterministic(new_seed, b.offset_in_file, b.size));
  }
  c.preload_file("/poke", 4096, 1, {{"datanode1"}});
  c.run_job(idle_for(&c, sim::ms(20)));  // let refreshes drain
}

struct ChaosOutcome {
  std::uint64_t stale_bytes = 0;      // re-read bytes that matched OLD content
  std::uint64_t stale_rejects = 0;    // epoch-backstop rejections (layer 3)
  std::uint64_t lost_invalidations = 0;
  std::uint64_t fallbacks = 0;        // peer-down disk fallbacks
};

ChaosOutcome run_chaos(std::size_t readers, std::uint64_t fault_seed) {
  fault::registry().reset();
  auto c = make_fleet(readers, /*peer_on=*/true);
  ChaosOutcome r;
  std::uint64_t bad = 0;
  // Populate pass: every reader scans once, publishing its cache tail
  // into the copyset directory.
  c->run_job(spawn_fleet(c.get(), readers, kSeed, 1, &bad));
  r.stale_bytes += bad;
  // Arm the coherence chaos, seeded so the run is reproducible: a quarter
  // of invalidation notifications are lost, a quarter of directory
  // lookups answer from a pre-invalidation snapshot, and the odd peer
  // fetch finds its holder down.
  fault::registry().seed(fault_seed);
  fault::Spec quarter;
  quarter.probability = 0.25;
  fault::registry().arm(fault::points::kPeerCacheInvalidateLost, quarter);
  fault::registry().arm(fault::points::kPeerCacheStalePeer, quarter);
  fault::Spec rare;
  rare.probability = 0.02;
  fault::registry().arm(fault::points::kPeerCachePeerDown, rare);
  rewrite_file_blocks(*c, kNewSeed);
  // Re-read under fault load: every byte must match the NEW content even
  // though some holders never heard the invalidation and the directory
  // keeps advertising them.
  bad = 0;
  c->run_job(spawn_fleet(c.get(), readers, kNewSeed, 2, &bad));
  r.stale_bytes += bad;
  for (std::size_t i = 0; i < readers; ++i) {
    const core::DaemonStats s =
        c->daemon("host" + std::to_string(i + 2))->stats_snapshot();
    r.stale_rejects += s.peer_stale_rejects;
    r.fallbacks += s.peer_fallbacks;
  }
  r.lost_invalidations = c->peer_directory()->invalidations_lost();
  fault::registry().reset();
  return r;
}

// ---- FlowSim arm ----

cluster::FlowSimResult run_flow(bool peer_on) {
  cluster::FlowSimConfig cfg;
  cfg.topo.racks = 4;
  cfg.topo.hosts_per_rack = 8;
  cfg.topo.vms_per_host = 2;
  cfg.topo.oversubscription = 4.0;
  cfg.route.policy = cluster::RoutePolicy::kReplicaAware;
  cfg.blocks = 256;
  cfg.block_bytes = 1 << 20;
  cfg.reads = 20000;
  cfg.peer_cache = peer_on;
  cfg.peer_cache_blocks = 32;  // 32 hosts x 32 blocks >> 256-block hot set
  return cluster::run_flowsim(cfg);
}

}  // namespace
}  // namespace vread::bench

int main(int argc, char** argv) {
  using namespace vread::bench;
  vread::metrics::print_banner(
      "Ablation: cluster-wide cooperative block cache",
      "owner directory, copyset invalidation, peer-served fills");
  BenchReport report("ablation_peercache");
  report.param("file_bytes", kFileBytes)
      .param("cache_bytes", kCacheBytes)
      .param("chunk_bytes", kChunk)
      .param("rounds", static_cast<std::uint64_t>(kRounds))
      .param("workers", static_cast<std::uint64_t>(4))
      .param("link_gbps", 2.5)
      .param("disk_read_mbps", 60.0);

  bool all_ok = true;
  {
    std::cout << "cyclic shared-working-set re-scan, peer tier on vs off:\n";
    vread::metrics::TablePrinter t({"readers", "off (MBps)", "on (MBps)",
                                    "speedup", "disk off (MB)", "disk on (MB)",
                                    "disk-read ratio", "peer (MB)"});
    for (std::size_t n : {2UL, 4UL, 5UL}) {
      FleetOutcome off = run_fleet(n, false);
      FleetOutcome on = run_fleet(n, true);
      all_ok = all_ok && off.ok && on.ok;
      const double speedup = off.mbps > 0 ? on.mbps / off.mbps : 0.0;
      const double read_ratio =
          on.disk_reads > 0
              ? static_cast<double>(off.disk_reads) / on.disk_reads
              : 0.0;
      t.add_row({std::to_string(n), vread::metrics::Cell(off.mbps),
                 vread::metrics::Cell(on.mbps), vread::metrics::Cell(speedup),
                 vread::metrics::Cell(off.disk_mb),
                 vread::metrics::Cell(on.disk_mb),
                 vread::metrics::Cell(read_ratio),
                 vread::metrics::Cell(on.peer_mb)});
      const std::string key = std::to_string(n) + "readers";
      report.metric("aggregate_mbps_on_" + key, on.mbps, "MBps", "higher");
      report.metric("aggregate_mbps_off_" + key, off.mbps, "MBps", "higher");
      report.metric("speedup_" + key, speedup, "x", "higher",
                    n >= 4 ? 2.0 : std::nan(""));
      report.metric("disk_read_ratio_" + key, read_ratio, "x", "higher",
                    n >= 4 ? 5.0 : std::nan(""));
      report.metric("peer_mb_" + key, on.peer_mb, "MB", "higher");
      // The acceptance gates: a cooperative tier that fails to at least
      // double aggregate throughput and cut disk reads 5x on a 4+ reader
      // shared working set is broken, not slow.
      if (n >= 4 && (speedup < 2.0 || read_ratio < 5.0)) all_ok = false;
    }
    t.print();
    std::cout << "\n";
  }
  {
    std::cout << "seeded coherence chaos (lost invalidations + stale "
                 "directory + peer down):\n";
    ChaosOutcome ch = run_chaos(5, /*fault_seed=*/2026);
    vread::metrics::TablePrinter t({"stale bytes", "stale rejects",
                                    "lost invalidations", "disk fallbacks"});
    t.add_row({std::to_string(ch.stale_bytes), std::to_string(ch.stale_rejects),
               std::to_string(ch.lost_invalidations),
               std::to_string(ch.fallbacks)});
    t.print();
    report.metric("chaos_stale_bytes", static_cast<double>(ch.stale_bytes),
                  "bytes", "lower", 0.0);
    report.metric("chaos_stale_rejects", static_cast<double>(ch.stale_rejects),
                  "count", "higher");
    report.metric("chaos_lost_invalidations",
                  static_cast<double>(ch.lost_invalidations), "count", "higher");
    // Zero stale bytes is the contract; a run that never exercised the
    // epoch backstop (no lost notification, no stale reject) proves
    // nothing, so both must be non-zero for the arm to count.
    if (ch.stale_bytes != 0 || ch.stale_rejects == 0 ||
        ch.lost_invalidations == 0) {
      all_ok = false;
    }
    std::cout << "\n";
  }
  {
    std::cout << "FlowSim cross-check (32 hosts, 20k reads, 256-block hot "
                 "set):\n";
    vread::metrics::TablePrinter t({"tier", "MBps", "disk reads",
                                    "peer fetches", "own-host hits"});
    vread::cluster::FlowSimResult off = run_flow(false);
    vread::cluster::FlowSimResult on = run_flow(true);
    // With the tier off the peer counters are defined as zero and every
    // read is replica-served — the off-arm disk count is the read count.
    t.add_row({"off", vread::metrics::Cell(off.aggregate_mb_s),
               std::to_string(off.reads), std::to_string(off.peer_fetches),
               std::to_string(off.peer_local_hits)});
    t.add_row({"on", vread::metrics::Cell(on.aggregate_mb_s),
               std::to_string(on.disk_reads), std::to_string(on.peer_fetches),
               std::to_string(on.peer_local_hits)});
    t.print();
    report.metric("flowsim_mbps_on", on.aggregate_mb_s, "MBps", "higher");
    report.metric("flowsim_mbps_off", off.aggregate_mb_s, "MBps", "higher");
    report.metric("flowsim_disk_reads_on", static_cast<double>(on.disk_reads),
                  "count", "lower");
    report.metric("flowsim_peer_fetches",
                  static_cast<double>(on.peer_fetches + on.peer_local_hits),
                  "count", "higher");
    if (on.peer_fetches + on.peer_local_hits == 0 ||
        on.disk_reads >= off.reads) {
      all_ok = false;
    }
  }

  std::cout << (all_ok ? "\ncontent verified on every stream, gates met\n"
                       : "\nGATE FAILED (content mismatch, stale bytes, or "
                         "missed speedup/disk-read targets)\n");
  std::cout << "Expected shape: private LRU caches hit ~0% on cyclic scans,\n"
               "so the baseline serializes on the owner's 60 MB/s disk; the\n"
               "cooperative tier serves repeat misses from rotated peers'\n"
               "cache tails (>=2x MBps, >=5x fewer disk reads at 4+ readers)\n"
               "while epoch filtering keeps every byte current under lost\n"
               "invalidations and stale directory replies.\n";
  report.maybe_write(argc, argv);
  return all_ok ? 0 : 1;
}
