// Cluster-wide cooperative block cache (DESIGN.md §15): DaemonConfig
// validation of the peer-tier knobs, owner-directory epoch/copyset unit
// semantics, the BlockCache removal observer contract, end-to-end peer
// fetches serving re-reads of a shared working set without touching the
// owner again, byte-identity of peer-served bytes against the disk path
// on every transport, eviction racing copyset invalidation under a worker
// pool, and the three seeded chaos drills (lost invalidation, stale peer,
// peer down) proving zero stale bytes ever reach a reader.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.h"
#include "core/block_cache.h"
#include "core/peer_cache.h"
#include "core/vread_daemon.h"
#include "fault/fault.h"
#include "fault/status.h"
#include "hdfs/dfs_client.h"
#include "mem/buffer.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "testutil.h"

namespace vread::core {
namespace {

using apps::Cluster;
using mem::Buffer;
using testutil::chaos_baseline;
using testutil::prob;
using testutil::racked_bed;
using testutil::RegistryGuard;

constexpr std::uint64_t kFileBytes = 8 * 1024 * 1024;  // 2 blocks of 4 MB
constexpr std::uint64_t kSeed = 77;

DaemonConfig peer_stack(Transport transport = Transport::kRdma,
                        std::size_t workers = 4) {
  DaemonConfig dc;
  dc.transport = transport;
  dc.workers = workers;  // workers=1 would serialize the control loop
  dc.peer_cache.enabled = true;
  return dc;
}

// ---- DaemonConfig::Validate() of the peer-tier knobs ----

TEST(PeerCacheValidate, RequiresLiveBlockCache) {
  DaemonConfig dc;
  dc.peer_cache.enabled = true;
  dc.cache_bytes = 0;
  const Status st = dc.Validate();
  EXPECT_EQ(st.code(), StatusCode::kConfig);
  EXPECT_NE(st.to_string().find("peer_cache.enabled"), std::string::npos);
}

TEST(PeerCacheValidate, ConflictsWithDirectRead) {
  DaemonConfig dc;
  dc.peer_cache.enabled = true;
  dc.direct_read = true;
  EXPECT_EQ(dc.Validate().code(), StatusCode::kConfig);
}

// ---- BlockCache removal observer (the unpublish hook) ----

TEST(BlockCacheObserver, FiresOncePerBlockOnEveryRemovalPath) {
  BlockCache cache(1024 * 1024, "obs-host");
  std::vector<std::pair<std::string, std::string>> removed;
  cache.set_removal_observer([&](const std::string& dn, const std::string& b) {
    removed.emplace_back(dn, b);
  });
  const Buffer chunk = Buffer::deterministic(1, 0, 4096);
  // Two entries of one block: dropping the first keeps the block resident.
  ASSERT_TRUE(cache.insert("dn1", "blk_a", 0, chunk));
  ASSERT_TRUE(cache.insert("dn1", "blk_a", 4096, chunk));
  ASSERT_TRUE(cache.insert("dn1", "blk_b", 0, chunk));
  cache.invalidate_block("dn1", "blk_a");
  ASSERT_EQ(removed.size(), 1u);  // once, not per entry
  EXPECT_EQ(removed[0], (std::pair<std::string, std::string>("dn1", "blk_a")));
  cache.invalidate_datanode("dn1");
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[1].second, "blk_b");
  // clear() notifies every distinct resident block once.
  ASSERT_TRUE(cache.insert("dn1", "blk_c", 0, chunk));
  ASSERT_TRUE(cache.insert("dn2", "blk_c", 0, chunk));
  cache.clear();
  EXPECT_EQ(removed.size(), 4u);
}

TEST(BlockCacheObserver, LruEvictionUnpublishesTheVictim) {
  BlockCache cache(8192, "evict-host");  // room for exactly two entries
  std::vector<std::string> evicted;
  cache.set_removal_observer(
      [&](const std::string&, const std::string& b) { evicted.push_back(b); });
  const Buffer chunk = Buffer::deterministic(2, 0, 4096);
  ASSERT_TRUE(cache.insert("dn", "blk_1", 0, chunk));
  ASSERT_TRUE(cache.insert("dn", "blk_2", 0, chunk));
  ASSERT_TRUE(cache.insert("dn", "blk_3", 0, chunk));  // evicts blk_1
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "blk_1");
}

TEST(BlockCacheObserver, InsertReportsResidency) {
  BlockCache cache(8192, "res-host");
  EXPECT_FALSE(cache.insert("dn", "blk", 0, Buffer()));  // empty payload
  EXPECT_FALSE(
      cache.insert("dn", "blk", 0, Buffer::deterministic(3, 0, 16384)));  // oversized
  EXPECT_TRUE(cache.insert("dn", "blk", 0, Buffer::deterministic(3, 0, 4096)));
  // Same-chop refresh is still resident.
  EXPECT_TRUE(cache.insert("dn", "blk", 0, Buffer::deterministic(3, 0, 4096)));
  BlockCache off(0, "off-host");
  EXPECT_FALSE(off.insert("dn", "blk", 0, Buffer::deterministic(3, 0, 4096)));
}

TEST(BlockCacheObserver, LongerPayloadAtACachedOffsetReplacesTheEntry) {
  BlockCache cache(16384, "longer-host");
  int removals = 0;
  cache.set_removal_observer([&](const std::string&, const std::string&) { ++removals; });
  ASSERT_TRUE(cache.insert("dn", "blk", 0, Buffer::deterministic(3, 0, 4096)));
  ASSERT_TRUE(cache.insert("dn", "other", 0, Buffer::deterministic(4, 0, 8192)));
  // Resident means servable: the longer range must hit afterwards.
  EXPECT_TRUE(cache.insert("dn", "blk", 0, Buffer::deterministic(3, 0, 8192)));
  EXPECT_EQ(cache.lookup("dn", "blk", 0, 8192), Buffer::deterministic(3, 0, 8192));
  EXPECT_EQ(cache.bytes(), 16384u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(removals, 0);  // the block never left the cache
  // A shorter re-insert keeps the longer entry.
  EXPECT_TRUE(cache.insert("dn", "blk", 0, Buffer::deterministic(3, 0, 2048)));
  EXPECT_EQ(cache.lookup("dn", "blk", 0, 8192), Buffer::deterministic(3, 0, 8192));
  // Growing past the capacity left evicts the LRU victim, reported once.
  EXPECT_TRUE(cache.insert("dn", "blk", 0, Buffer::deterministic(3, 0, 12288)));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(removals, 1);  // "other"
  EXPECT_EQ(cache.bytes(), 12288u);
  EXPECT_EQ(cache.lookup("dn", "blk", 0, 12288), Buffer::deterministic(3, 0, 12288));
}

// ---- owner directory epoch/copyset unit semantics ----

// A real (tiny) cluster supplies daemons the directory can point at; the
// epoch machinery itself is exercised synchronously.
struct DirBed {
  std::unique_ptr<Cluster> c;
  PeerCacheDirectory* dir;
  VReadDaemon *d1, *d2;
  DirBed() {
    c = racked_bed(2, /*hosts_per_rack=*/2, kFileBytes, kSeed);
    c->enable_vread(peer_stack());
    dir = c->peer_directory();
    d1 = c->daemon("host1");
    d2 = c->daemon("host2");
  }
};

TEST(PeerDirectory, EpochLifecycleGatesStalePublishes) {
  DirBed bed;
  ASSERT_NE(bed.dir, nullptr);
  const std::uint64_t e = bed.dir->publish(bed.d1, "dn", "blk");
  EXPECT_EQ(e, 1u);
  EXPECT_EQ(bed.dir->epoch("dn", "blk"), 1u);
  bed.dir->invalidate(bed.d1, "dn", "blk");
  EXPECT_EQ(bed.dir->epoch("dn", "blk"), 2u);
  EXPECT_EQ(bed.dir->invalidations(), 1u);
  // A fetch that raced the invalidation must not re-advertise old bytes.
  EXPECT_FALSE(bed.dir->publish_if_current(bed.d2, "dn", "blk", 1));
  EXPECT_EQ(bed.dir->stale_publish_refusals(), 1u);
  EXPECT_TRUE(bed.dir->publish_if_current(bed.d2, "dn", "blk", 2));
}

TEST(PeerDirectory, UnpublishErasesLosslesslyAndKeepsTombstones) {
  DirBed bed;
  bed.dir->publish(bed.d1, "dn", "blk");
  bed.dir->unpublish(bed.d1, "dn", "blk");
  // Erasing a never-invalidated record is lossless: the effective epoch is
  // still 1, so a fetch that was in flight across the eviction may still
  // publish (the warm-up path keeps working)...
  EXPECT_EQ(bed.dir->epoch("dn", "blk"), 1u);
  EXPECT_TRUE(bed.dir->publish_if_current(bed.d2, "dn", "blk", 1));
  // ...but invalidating leaves a tombstone even once every holder is
  // gone: the bump must never be forgotten.
  bed.dir->unpublish(bed.d2, "dn", "blk");
  bed.dir->invalidate(bed.d1, "dn", "blk");
  EXPECT_EQ(bed.dir->invalidations(), 1u);
  EXPECT_EQ(bed.dir->epoch("dn", "blk"), 2u);
  EXPECT_FALSE(bed.dir->publish_if_current(bed.d2, "dn", "blk", 1));
}

// Regression (review): a sole holder's eviction erased the record, the
// datanode-wide invalidation then found nothing to bump, and a racing
// in-flight fetch republished pre-invalidation bytes at an unchanged
// epoch 1. The per-datanode base gives the bump memory independent of
// record existence.
TEST(PeerDirectory, InvalidationSurvivesRecordErasure) {
  DirBed bed;
  EXPECT_EQ(bed.dir->publish(bed.d1, "dn", "blk"), 1u);
  // d2's fetch snapshots epoch 1 at lookup time, then suspends.
  bed.dir->unpublish(bed.d1, "dn", "blk");       // sole holder evicts: record erased
  bed.dir->invalidate_datanode(bed.d1, "dn");    // the bump must still stick
  EXPECT_EQ(bed.dir->epoch("dn", "blk"), 2u);
  // The in-flight publish lands after the bump: refused, not resurrected.
  EXPECT_FALSE(bed.dir->publish_if_current(bed.d2, "dn", "blk", 1));
  EXPECT_GE(bed.dir->stale_publish_refusals(), 1u);
  EXPECT_TRUE(bed.dir->publish_if_current(bed.d2, "dn", "blk", 2));
  // Blocks of other datanodes are untouched by the base bump.
  EXPECT_EQ(bed.dir->epoch("other_dn", "blk"), 1u);
}

TEST(PeerDirectory, DatanodeInvalidationSweepsEveryBlock) {
  DirBed bed;
  bed.dir->publish(bed.d1, "dnA", "blk_1");
  bed.dir->publish(bed.d2, "dnA", "blk_2");
  bed.dir->publish(bed.d1, "dnB", "blk_3");
  bed.dir->invalidate_datanode(bed.d1, "dnA");
  EXPECT_EQ(bed.dir->epoch("dnA", "blk_1"), 2u);
  EXPECT_EQ(bed.dir->epoch("dnA", "blk_2"), 2u);
  EXPECT_EQ(bed.dir->epoch("dnB", "blk_3"), 1u);  // other dn untouched
  EXPECT_EQ(bed.dir->invalidations(), 2u);
}

// ---- end-to-end read helpers ----

// `path` by value: spawned coroutines outlive the caller's temporaries,
// so a reference parameter would dangle by the time the body runs.
sim::Task checksum_reader(hdfs::DfsClient* client, std::string path,
                          std::uint64_t offset, std::uint64_t len,
                          std::uint64_t* checksum, sim::Latch* done) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  Buffer data;
  co_await in->pread(offset, len, data);
  *checksum = data.size() == len ? data.checksum() : 0;
  co_await in->close();
  if (done != nullptr) done->count_down();
}

std::uint64_t read_checksum(Cluster& c, const std::string& client_vm,
                            std::uint64_t offset = 0,
                            std::uint64_t len = kFileBytes) {
  std::uint64_t sum = 0;
  c.run_job(checksum_reader(c.client(client_vm), "/f", offset, len, &sum, nullptr));
  return sum;
}

// ---- end-to-end: peers serve re-reads of a shared working set ----

// File lives only on datanode1 (host1). host2's reader populates its own
// daemon's cache (and the directory); host3's reader is then served from
// host2's cache — the owner's daemon serves no further read traffic.
TEST(PeerFetch, SecondRemoteReaderIsServedByPeerNotOwner) {
  auto c = racked_bed(3, /*hosts_per_rack=*/3, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(peer_stack());
  c->drop_all_caches();
  const std::uint64_t expected = Buffer::deterministic(kSeed, 0, kFileBytes).checksum();

  ASSERT_EQ(read_checksum(*c, "client2"), expected);
  const DaemonStats warm2 = c->daemon("host2")->stats_snapshot();
  EXPECT_EQ(warm2.peer_fetches, 0u);  // nobody held anything yet
  const std::uint64_t owner_reads_before = c->daemon("host1")->reads();

  ASSERT_EQ(read_checksum(*c, "client3"), expected);
  const DaemonStats s3 = c->daemon("host3")->stats_snapshot();
  EXPECT_GT(s3.peer_lookups, 0u);
  EXPECT_GT(s3.peer_dir_hits, 0u);
  EXPECT_GT(s3.peer_fetches, 0u);
  EXPECT_EQ(s3.peer_fetch_bytes, kFileBytes);  // every chunk came from a peer
  EXPECT_EQ(s3.peer_stale_rejects, 0u);
  // The owner's daemon never ran another mount read: the whole second
  // pass was absorbed by the cooperative tier.
  EXPECT_EQ(c->daemon("host1")->reads(), owner_reads_before);
}

TEST(PeerFetch, LocalReaderHitsPeerTierBeforeDisk) {
  // The single replica is co-located with client1, so client1's read runs
  // the LOCAL read path (not the remote-serve path) — which must consult
  // the tier too once a remote reader has seeded a copyset holder.
  auto c = racked_bed(2, 2, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(peer_stack());
  c->drop_all_caches();
  const std::uint64_t expected = Buffer::deterministic(kSeed, 0, kFileBytes).checksum();
  // Seed host2's cache under the (datanode1, blk) key by reading the
  // datanode1 replica remotely from client2's host.
  ASSERT_EQ(read_checksum(*c, "client2"), expected);
  // Serving that stream also filled host1's own cache (the owner caches
  // what its mount reads); clear it — the removal observer unpublishes
  // host1 — so host2 is the only copyset holder left.
  c->daemon("host1")->cache().clear();
  // client1 reads its co-located datanode1 replica: local_read misses its
  // cold cache, the directory points at host2, and the bytes arrive over
  // the LAN instead of the loop mount.
  ASSERT_EQ(read_checksum(*c, "client1"), expected);
  const DaemonStats s1 = c->daemon("host1")->stats_snapshot();
  EXPECT_GT(s1.peer_fetches, 0u);
  EXPECT_EQ(s1.peer_fetch_bytes, kFileBytes);
}

// Byte-identity across transports: the same working set read through the
// peer tier (rdma and tcp) and through the plain disk path produces
// bit-identical payloads.
TEST(PeerFetch, PeerServedBytesMatchDiskPathOnBothTransports) {
  const std::uint64_t expected = Buffer::deterministic(kSeed, 0, kFileBytes).checksum();
  for (const Transport t : {Transport::kRdma, Transport::kTcp}) {
    // Disk path: tier off.
    auto base = racked_bed(3, 3, 0, 0);
    base->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
    DaemonConfig off;
    off.transport = t;
    off.workers = 4;
    base->enable_vread(off);
    base->drop_all_caches();
    ASSERT_EQ(read_checksum(*base, "client2"), expected);
    ASSERT_EQ(read_checksum(*base, "client3"), expected);

    // Peer tier on: second reader is peer-served, same bytes.
    auto peer = racked_bed(3, 3, 0, 0);
    peer->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
    peer->enable_vread(peer_stack(t));
    peer->drop_all_caches();
    ASSERT_EQ(read_checksum(*peer, "client2"), expected);
    ASSERT_EQ(read_checksum(*peer, "client3"), expected);
    EXPECT_GT(peer->daemon("host3")->stats_snapshot().peer_fetches, 0u)
        << "transport " << static_cast<int>(t);
  }
}

// Unaligned windows: peer-served sub-ranges slice the same chop-point
// entries the local cache uses, so arbitrary offsets stay byte-exact.
TEST(PeerFetch, UnalignedWindowsStayByteExact) {
  auto c = racked_bed(3, 3, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(peer_stack());
  c->drop_all_caches();
  ASSERT_EQ(read_checksum(*c, "client2"),
            Buffer::deterministic(kSeed, 0, kFileBytes).checksum());
  for (const auto& [off, len] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {1, 4095}, {123456, 700001}, {kFileBytes - 9000, 9000}}) {
    EXPECT_EQ(read_checksum(*c, "client3", off, len),
              Buffer::deterministic(kSeed, off, len).checksum())
        << "window [" << off << ", +" << len << ")";
  }
}

// ---- review regressions: mid-flight invalidation vs the owner fallback,
// ---- and the remote descriptor's size snapshot going stale ----

sim::Task invalidation_at(Cluster* c, sim::SimTime delay, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await c->sim().delay(delay);
    c->peer_directory()->invalidate_datanode(c->daemon("host1"), "datanode1");
  }
}

// Regression (review): the owner-fallback path published unconditionally
// AFTER the bytes crossed the owner's control worker, the LAN, and the RX
// CPU. An epoch bump landing inside that span must refuse the publish —
// the bytes were authoritative at dispatch time, not at landing time.
TEST(PeerFetch, OwnerFallbackPublishGatedAgainstMidFlightInvalidation) {
  auto c = racked_bed(2, 2, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(peer_stack());
  c->drop_all_caches();
  const std::uint64_t expected = Buffer::deterministic(kSeed, 0, kFileBytes).checksum();
  // No copyset holder exists, so every chunk of client2's read takes the
  // owner fallback; epoch bumps every 2 ms land inside chunk flights.
  c->sim().spawn(invalidation_at(c.get(), sim::ms(2), 32));
  ASSERT_EQ(read_checksum(*c, "client2"), expected);
  EXPECT_GE(c->peer_directory()->stale_publish_refusals(), 1u);
  // Nothing a refused publish left behind is reachable: a fresh reader
  // still gets the authoritative bytes.
  ASSERT_EQ(read_checksum(*c, "client2"), expected);
}

// Both windows live inside the FIRST 4 MB block, so the second pread
// reuses the stream's cached vfd — i.e. the descriptor that was open when
// the invalidation arrived — rather than opening a fresh one.
constexpr std::uint64_t kHalfBlock = 2 * 1024 * 1024;

sim::Task two_phase_reader(Cluster* c, std::uint64_t* sum1, std::uint64_t* sum2,
                           std::uint64_t* lookups_between, std::uint64_t* lookups_after) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await c->client("client2")->open("/f", in);
  Buffer a;
  co_await in->pread(0, kHalfBlock, a);
  *sum1 = a.checksum();
  // The owner's refresh notification reaches this holder: its cache drops
  // AND the open descriptor's size snapshot is no longer trustworthy.
  c->daemon("host2")->apply_peer_invalidate("datanode1", "");
  *lookups_between = c->daemon("host2")->stats_snapshot().peer_lookups;
  Buffer b;
  co_await in->pread(kHalfBlock, kHalfBlock, b);
  *sum2 = b.checksum();
  *lookups_after = c->daemon("host2")->stats_snapshot().peer_lookups;
  co_await in->close();
}

// Regression (review): the remote descriptor's inode.size is an open-time
// snapshot, and the peer tier answers range checks from it locally. After
// an invalidation the descriptor must stop trusting the snapshot and fall
// back to the owner-checked stream path (reopen refreshes it).
TEST(PeerFetch, InvalidatedDescriptorFallsBackToOwnerCheckedStream) {
  auto c = racked_bed(2, 2, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(peer_stack());
  c->drop_all_caches();
  std::uint64_t sum1 = 0, sum2 = 0, between = 0, after = 0;
  c->run_job(two_phase_reader(c.get(), &sum1, &sum2, &between, &after));
  EXPECT_EQ(sum1, Buffer::deterministic(kSeed, 0, kHalfBlock).checksum());
  EXPECT_EQ(sum2, Buffer::deterministic(kSeed, kHalfBlock, kHalfBlock).checksum());
  // The first half consulted the tier; the flagged descriptor's second
  // half bypassed it entirely (owner-checked stream path, no lookups).
  EXPECT_GT(between, 0u);
  EXPECT_EQ(after, between);
  // A reopened stream gets a fresh snapshot and uses the tier again.
  std::uint64_t resum = read_checksum(*c, "client2");
  EXPECT_EQ(resum, Buffer::deterministic(kSeed, 0, kFileBytes).checksum());
  EXPECT_GT(c->daemon("host2")->stats_snapshot().peer_lookups, after);
}

// ---- eviction racing copyset invalidation under a worker pool ----

sim::Task invalidation_storm(Cluster* c, PeerCacheDirectory* dir, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await c->sim().delay(sim::ms(2));
    // Alternate the two revocation surfaces the daemon exposes.
    dir->invalidate_datanode(c->daemon("host1"), "datanode1");
    c->daemon("host2")->apply_peer_invalidate("datanode1", "");
  }
}

sim::Task race_readers(Cluster* c, std::vector<std::uint64_t>* sums) {
  sim::Latch done(c->sim(), sums->size());
  for (std::size_t i = 0; i < sums->size(); ++i) {
    const std::string vm = "client" + std::to_string(i % 4 + 1);
    c->sim().spawn(checksum_reader(c->client(vm), "/f", 0, kFileBytes,
                                   &(*sums)[i], &done));
  }
  co_await done.wait();
}

TEST(PeerEvictionRace, ConcurrentEvictionAndInvalidationStayByteExact) {
  auto c = racked_bed(4, 2, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  // A cache barely larger than one stream chunk: every stream constantly
  // evicts what the last one published, so unpublish (removal observer)
  // races lookup/fetch/publish on every chunk, while the storm below
  // bumps epochs mid-flight.
  DaemonConfig dc = peer_stack();
  dc.cache_bytes = 512 * 1024;
  c->enable_vread(dc);
  c->drop_all_caches();
  c->sim().spawn(invalidation_storm(c.get(), c->peer_directory(), 64));
  std::vector<std::uint64_t> sums(8, 0);
  c->run_job(race_readers(c.get(), &sums));
  const std::uint64_t expected = Buffer::deterministic(kSeed, 0, kFileBytes).checksum();
  for (std::size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], expected) << "reader " << i;
  }
}

// ---- block-name reuse: the staleness scenario the epochs exist for ----

// Rewrites every replica of "/f" on datanode1 with `new_seed` content and
// reports it through the namenode, which triggers the owner daemon's
// refresh -> cache + directory invalidation (the vRead_update path).
void rewrite_file_blocks(Cluster& c, std::uint64_t new_seed) {
  hdfs::DataNode* dn = c.datanode("datanode1");
  for (const hdfs::BlockInfo& b : c.namenode().all_blocks("/f")) {
    dn->vm().fs().remove(hdfs::DataNode::block_path(b.name));
    dn->preload_block(b.name,
                      Buffer::deterministic(new_seed, b.offset_in_file, b.size));
  }
  // A fresh single-block file on the same datanode: its complete_block
  // event is what fans the refresh out to the subscribed daemons.
  c.preload_file("/poke", 4096, 1, {{"datanode1"}});
  c.run_job(testutil::idle(&c, sim::ms(20)));  // let refreshes drain
}

TEST(FaultPeerCacheLostInvalidation, NoStaleBytesWhenEveryNotificationDrops) {
  RegistryGuard guard;
  auto c = racked_bed(3, 3, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(peer_stack());
  c->drop_all_caches();
  ASSERT_EQ(read_checksum(*c, "client2"),
            Buffer::deterministic(kSeed, 0, kFileBytes).checksum());

  // Every holder notification is dropped: holders keep their old bytes.
  fault::registry().seed(11);
  fault::registry().arm(fault::points::kPeerCacheInvalidateLost, prob(1.0));
  constexpr std::uint64_t kNewSeed = 78;
  rewrite_file_blocks(*c, kNewSeed);
  fault::registry().disarm(fault::points::kPeerCacheInvalidateLost);

  // Defense layer 2 (epoch-filtered lookups) keeps the unreachable copyset
  // records from routing fetches at the old bytes: the next reader gets
  // the NEW content, from disk.
  EXPECT_EQ(read_checksum(*c, "client3"),
            Buffer::deterministic(kNewSeed, 0, kFileBytes).checksum());
  if (!chaos_baseline()) {
    EXPECT_GT(c->peer_directory()->invalidations_lost(), 0u);
  }
}

TEST(FaultPeerCacheStalePeer, FetchTimeEpochCheckRejectsStaleHolders) {
  RegistryGuard guard;
  auto c = racked_bed(3, 3, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(peer_stack());
  c->drop_all_caches();
  ASSERT_EQ(read_checksum(*c, "client2"),
            Buffer::deterministic(kSeed, 0, kFileBytes).checksum());

  // Notifications are lost AND the directory answers from a stale
  // snapshot: lookups now hand out the pre-invalidation holders, so only
  // defense layer 3 — the fetch-time epoch check — stands between the
  // reader and the old bytes.
  fault::registry().seed(12);
  fault::registry().arm(fault::points::kPeerCacheInvalidateLost, prob(1.0));
  fault::registry().arm(fault::points::kPeerCacheStalePeer, prob(1.0));
  constexpr std::uint64_t kNewSeed = 79;
  rewrite_file_blocks(*c, kNewSeed);

  EXPECT_EQ(read_checksum(*c, "client3"),
            Buffer::deterministic(kNewSeed, 0, kFileBytes).checksum());
  if (!chaos_baseline()) {
    EXPECT_GT(c->daemon("host3")->stats_snapshot().peer_stale_rejects, 0u);
  }
}

TEST(FaultPeerCachePeerDown, FetchFallsBackToDiskMidStream) {
  RegistryGuard guard;
  auto c = racked_bed(3, 3, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(peer_stack());
  c->drop_all_caches();
  const std::uint64_t expected = Buffer::deterministic(kSeed, 0, kFileBytes).checksum();
  ASSERT_EQ(read_checksum(*c, "client2"), expected);

  // Holders stop answering halfway through the chunk sequence (seeded
  // probabilistic schedule, so healthy and dead attempts interleave): the
  // reader silently falls back to the owner's disk for those chunks.
  fault::registry().seed(13);
  fault::registry().arm(fault::points::kPeerCachePeerDown, prob(0.5));
  ASSERT_EQ(read_checksum(*c, "client3"), expected);
  fault::registry().disarm(fault::points::kPeerCachePeerDown);
  if (!chaos_baseline()) {
    const DaemonStats s3 = c->daemon("host3")->stats_snapshot();
    EXPECT_GT(s3.peer_fallbacks, 0u);
    EXPECT_LT(s3.peer_fetch_bytes, kFileBytes);  // some chunks went to disk
  }
}

// Determinism: two identical peer-tier runs dispatch identically.
TEST(PeerFetch, DeterministicAcrossRuns) {
  auto run = [] {
    auto c = racked_bed(3, 3, 0, 0);
    c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
    c->enable_vread(peer_stack());
    c->drop_all_caches();
    const std::uint64_t a = read_checksum(*c, "client2");
    const std::uint64_t b = read_checksum(*c, "client3");
    return std::make_tuple(a, b, c->sim().now(),
                           c->daemon("host3")->stats_snapshot().peer_fetch_bytes);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace vread::core
