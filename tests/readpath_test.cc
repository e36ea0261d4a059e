// Exactness guard for the daemon's read-serving paths (DESIGN.md §10) and
// the HDFS client's read pipeline (Algorithms 1 and 2 plus hedging,
// DESIGN.md §16).
//
// Each case drives one serve path end to end and pins four values: the
// payload checksum, the final simulated time, the dispatch digest (a hash
// of the time and order of every event the simulator ran) and the number
// of events dispatched. The simulator is deterministic, so moving a single
// CPU charge, wire hop, disk read or wakeup on a pinned path moves at
// least one of them. Each case also asserts the counter that proves the
// run took the path it is named after.
//
// A change meant to keep behaviour must keep these constants. A deliberate
// model change re-captures them (the failure message prints the new
// values) and says so in its description.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "core/libvread.h"
#include "core/vread_daemon.h"
#include "fault/fault.h"
#include "hdfs/dfs_client.h"
#include "hdfs/read_request.h"
#include "mem/buffer.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "testutil.h"

namespace vread::core {
namespace {

using apps::Cluster;
using mem::Buffer;
using testutil::RegistryGuard;

constexpr std::uint64_t kSeed = 91;
constexpr std::uint64_t kFileBytes = 8 * 1024 * 1024;  // 2 blocks of 4 MB
constexpr std::uint64_t kBlockBytes = 4 * 1024 * 1024;
constexpr std::uint64_t kChunk = 256 * 1024;  // the daemon's stream chunk

struct Pinned {
  std::uint64_t checksum = 0;
  sim::SimTime now = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

std::ostream& operator<<(std::ostream& os, const Pinned& p) {
  return os << "{" << p.checksum << "u, " << p.now << ", " << p.digest << "u, " << p.events
            << "u}";
}

Pinned observe(Cluster& c, std::uint64_t checksum) {
  return Pinned{checksum, c.sim().now(), c.sim().dispatch_digest(),
                c.sim().events_dispatched()};
}

void expect_pinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.checksum, want.checksum) << "got " << got;
  EXPECT_EQ(got.now, want.now) << "got " << got;
  EXPECT_EQ(got.digest, want.digest) << "got " << got;
  EXPECT_EQ(got.events, want.events) << "got " << got;
}

// `path` by value: spawned coroutines outlive the caller's temporaries.
sim::Task pread_checksum(hdfs::DfsClient* client, std::string path, std::uint64_t offset,
                         std::uint64_t len, std::uint64_t* checksum, sim::Latch* done) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  Buffer data;
  co_await in->pread(offset, len, data);
  *checksum = data.size() == len ? data.checksum() : 0;
  co_await in->close();
  if (done != nullptr) done->count_down();
}

std::uint64_t pread(Cluster& c, const std::string& client_vm, std::uint64_t offset,
                    std::uint64_t len) {
  std::uint64_t sum = 0;
  c.run_job(pread_checksum(c.client(client_vm), "/f", offset, len, &sum, nullptr));
  return sum;
}

// Two streams of the same VM read the whole file at the same instant.
sim::Task two_readers(Cluster* c, std::string client_vm, std::uint64_t* a,
                      std::uint64_t* b) {
  sim::Latch done(c->sim(), 2);
  c->sim().spawn(pread_checksum(c->client(client_vm), "/f", 0, kFileBytes, a, &done));
  c->sim().spawn(pread_checksum(c->client(client_vm), "/f", 0, kFileBytes, b, &done));
  co_await done.wait();
}

std::uint64_t expected_file() {
  return Buffer::deterministic(kSeed, 0, kFileBytes).checksum();
}

std::uint64_t expected(std::uint64_t offset, std::uint64_t len) {
  return Buffer::deterministic(kSeed, offset, len).checksum();
}

// Sequential 1 MB reads through the DFS client: the co-located path with
// the host mount's readahead engaged.
std::uint64_t dfsio_read(Cluster& c, const std::string& client_vm) {
  apps::DfsIoResult r;
  c.run_job(apps::TestDfsIo::read(c, client_vm, "/f", 1 << 20, r));
  return r.checksum;
}

DaemonConfig peer_tier(Transport transport) {
  DaemonConfig dc;
  dc.transport = transport;
  dc.workers = 4;
  dc.peer_cache.enabled = true;
  return dc;
}

// ---- hedge cancel: one leg whose cancel flag is raised mid-stream ----

sim::Task raise_after(sim::Simulation* sim, sim::SimTime delay, std::shared_ptr<bool> flag) {
  co_await sim->delay(delay);
  *flag = true;
}

// Opens the file's first block on `dn` through `lib` and reads all of it as
// a hedge leg whose cancel flag rises `cancel_at` after the read starts.
sim::Task cancelled_leg(Cluster* c, LibVread* lib, std::string block, std::string dn,
                        sim::SimTime cancel_at, Status* result) {
  std::uint64_t vfd = 0;
  Status st;
  co_await lib->open(sim::Name(block), sim::Name(dn), vfd, st);
  if (!st.ok()) {
    *result = st;
    co_return;
  }
  auto flag = std::make_shared<bool>(false);
  c->sim().spawn(raise_after(&c->sim(), cancel_at, flag));
  hdfs::ReadRequest rr;
  rr.vfd = vfd;
  rr.offset = 0;
  rr.len = kBlockBytes;
  rr.cancel = flag;
  rr.hedge = true;
  hdfs::ReadResult res;
  co_await lib->read(rr, res);
  *result = res.status;
  co_await lib->close(vfd);
}

// Delivered-then-uncharged bytes on `d`: non-zero only when a leg was
// cancelled after at least one chunk reached the ring.
std::uint64_t uncharged(const VReadDaemon& d) {
  std::uint64_t n = 0;
  for (const QosTenantStats& t : d.stats_snapshot().tenants) n += t.uncharged;
  return n;
}

// ---- co-located (local chain) ----

TEST(ReadPathDigest, ColocatedColdReadWithReadahead) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread();
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t sum = dfsio_read(*c, "client");
  EXPECT_EQ(sum, expected_file());
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  EXPECT_GT(s.cache_misses, 0u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.bytes_read, kFileBytes);
  expect_pinned(observe(*c, sum),
                Pinned{11579688884377281248u, 55014460, 10157142534737607120u, 755u});
}

TEST(ReadPathDigest, ColocatedCacheReRead) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread();
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  ASSERT_EQ(dfsio_read(*c, "client"), expected_file());
  const std::uint64_t hits_before = c->daemon("host1")->cache().hits();
  const std::uint64_t sum = dfsio_read(*c, "client");
  EXPECT_EQ(sum, expected_file());
  EXPECT_GT(c->daemon("host1")->cache().hits(), hits_before);
  expect_pinned(observe(*c, sum),
                Pinned{11579688884377281248u, 80722230, 17918107424027938746u, 1301u});
}

TEST(ReadPathDigest, TwoCoalescedColocatedReaders) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  DaemonConfig dc;
  dc.workers = 4;  // one worker would serve the streams strictly in turn
  c->enable_vread(testutil::validated(dc));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  std::uint64_t a = 0, b = 0;
  c->run_job(two_readers(c.get(), "client", &a, &b));
  EXPECT_EQ(a, expected_file());
  EXPECT_EQ(b, expected_file());
  EXPECT_GT(c->daemon("host1")->stats_snapshot().coalesce_hits, 0u);
  expect_pinned(observe(*c, a),
                Pinned{11579688884377281248u, 76686937, 8649435572893834679u, 1369u});
}

TEST(ReadPathDigest, DirectRead) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  DaemonConfig dc;
  dc.direct_read = true;
  c->enable_vread(testutil::validated(dc));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t sum = dfsio_read(*c, "client");
  EXPECT_EQ(sum, expected_file());
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  // Direct mode bypasses the block cache: no lookup, hit or miss.
  EXPECT_EQ(s.cache_hits + s.cache_misses, 0u);
  EXPECT_EQ(s.bytes_read, kFileBytes);
  expect_pinned(observe(*c, sum),
                Pinned{11579688884377281248u, 79172284, 18308307497817278669u, 653u});
}

// ---- remote whole-window stream (owner's active push) ----

TEST(ReadPathDigest, RemoteWholeWindowRdma) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  c->enable_vread(Transport::kRdma);
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t sum = dfsio_read(*c, "client");
  EXPECT_EQ(sum, expected_file());
  EXPECT_GT(c->daemon("host1")->remote_reads(), 0u);
  expect_pinned(observe(*c, sum),
                Pinned{11579688884377281248u, 55099668, 13641498601917540549u, 972u});
}

TEST(ReadPathDigest, RemoteWholeWindowTcp) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  c->enable_vread(Transport::kTcp);
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t sum = dfsio_read(*c, "client");
  EXPECT_EQ(sum, expected_file());
  EXPECT_GT(c->daemon("host1")->remote_reads(), 0u);
  expect_pinned(observe(*c, sum),
                Pinned{11579688884377281248u, 56289846, 9647771479488103352u, 1036u});
}

TEST(ReadPathDigest, TwoCoalescedRemoteReaders) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  DaemonConfig dc;
  dc.workers = 4;
  c->enable_vread(testutil::validated(dc));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  std::uint64_t a = 0, b = 0;
  c->run_job(two_readers(c.get(), "client", &a, &b));
  EXPECT_EQ(a, expected_file());
  EXPECT_EQ(b, expected_file());
  // The second stream slept on the first one's wire fill.
  EXPECT_GT(c->daemon("host1")->stats_snapshot().coalesce_hits, 0u);
  expect_pinned(observe(*c, a),
                Pinned{11579688884377281248u, 64205063, 9781746550931631881u, 1467u});
}

// ---- peer tier (chunk-at-a-time remote chain) ----

// The file lives on datanode1 only. client2's chunk is fetched from the
// owner daemon; client3's identical chunk then comes out of a copyset
// holder's cache.
TEST(ReadPathDigest, PeerTierTcpHolderAndOwnerFetch) {
  RegistryGuard guard;
  auto c = testutil::racked_bed(3, 3, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(testutil::validated(peer_tier(Transport::kTcp)));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t want = Buffer::deterministic(kSeed, 0, kChunk).checksum();
  ASSERT_EQ(pread(*c, "client2", 0, kChunk), want);
  const DaemonStats s2 = c->daemon("host2")->stats_snapshot();
  EXPECT_EQ(s2.peer_fetches, 0u);  // nobody held the chunk yet: owner fetch
  EXPECT_EQ(s2.remote_reads, 1u);
  const std::uint64_t sum = pread(*c, "client3", 0, kChunk);
  EXPECT_EQ(sum, want);
  const DaemonStats s3 = c->daemon("host3")->stats_snapshot();
  EXPECT_EQ(s3.peer_fetches, 1u);
  EXPECT_EQ(s3.peer_fetch_bytes, kChunk);
  expect_pinned(observe(*c, sum),
                Pinned{11295043679626050557u, 8691160, 10754284341107717053u, 199u});
}

TEST(ReadPathDigest, PeerTierRdmaCoalescedReaders) {
  RegistryGuard guard;
  auto c = testutil::racked_bed(2, 2, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(testutil::validated(peer_tier(Transport::kRdma)));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  std::uint64_t a = 0, b = 0;
  c->run_job(two_readers(c.get(), "client2", &a, &b));
  EXPECT_EQ(a, expected_file());
  EXPECT_EQ(b, expected_file());
  const DaemonStats s2 = c->daemon("host2")->stats_snapshot();
  EXPECT_GT(s2.coalesce_hits, 0u);
  EXPECT_EQ(s2.remote_reads, 4u);  // two streams x two blocks
  expect_pinned(observe(*c, a),
                Pinned{11579688884377281248u, 78272408, 15822788319470145735u, 1921u});
}

// ---- daemon-to-daemon failure paths ----

// The first open request to the owner's daemon is lost: remote_open backs
// off, retries and the second attempt opens the block.
TEST(ReadPathDigest, RemoteOpenRetriesAfterPeerDown) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  c->enable_vread(Transport::kRdma);
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  fault::registry().arm(fault::points::kPeerDown, {.every = 1, .max_fires = 1});
  const std::uint64_t sum = pread(*c, "client", 0, kBlockBytes);
  EXPECT_EQ(sum, expected(0, kBlockBytes));
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  EXPECT_EQ(s.remote_retries, 1u);
  EXPECT_EQ(s.failed_opens, 0u);
  EXPECT_EQ(c->client("client")->vread_fallback_reads(), 0u);
  expect_pinned(observe(*c, sum),
                Pinned{4744696722538584374u, 32518402, 15696121284909870023u, 461u});
}

// The owner's daemon restarts between two chunks of one stream: the
// requester's descriptor survives, but the owner answers its chunk
// request BAD_FD and the client falls back to the socket with no cooldown.
sim::Task read_across_owner_restart(Cluster* c, std::uint64_t* first,
                                    std::uint64_t* second) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await c->client("client2")->open("/f", in);
  Buffer a;
  co_await in->pread(0, kChunk, a);
  *first = a.checksum();
  c->daemon("host1")->restart();
  Buffer b;
  co_await in->pread(kChunk, kChunk, b);
  *second = b.checksum();
  co_await in->close();
}

TEST(ReadPathDigest, PeerTierOwnerChunkBadFdAfterOwnerRestart) {
  RegistryGuard guard;
  auto c = testutil::racked_bed(2, 2, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(testutil::validated(peer_tier(Transport::kRdma)));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  std::uint64_t first = 0, second = 0;
  c->run_job(read_across_owner_restart(c.get(), &first, &second));
  EXPECT_EQ(first, expected(0, kChunk));
  EXPECT_EQ(second, expected(kChunk, kChunk));
  EXPECT_EQ(c->daemon("host1")->restarts(), 1u);
  hdfs::DfsClient* client = c->client("client2");
  EXPECT_EQ(client->vread_fallback_reads(), 1u);
  EXPECT_EQ(client->socket_path_reads(), 1u);
  EXPECT_EQ(client->vread_cooldowns(), 0u);
  expect_pinned(observe(*c, second),
                Pinned{12706379316491924784u, 11993948, 8312952714970684077u, 310u});
}

// client4's chunk has two copyset holders. host2 caches it under an epoch
// whose invalidation it never heard of, so its bytes are rejected after
// the fetch. The owner's daemon heard it and evicted the chunk, then
// re-joined the copyset serving client3's next chunk, so it answers with
// a miss. The chunk then comes from the owner's disk path.
TEST(ReadPathDigest, PeerFetchStaleAndMissingHoldersFallBackToOwner) {
  RegistryGuard guard;
  auto c = testutil::racked_bed(4, 4, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(testutil::validated(peer_tier(Transport::kRdma)));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  ASSERT_EQ(pread(*c, "client2", 0, kChunk), expected(0, kChunk));
  const std::string block = c->namenode().all_blocks("/f").front().name;
  // Notifications go out in publish order: the owner's arrives, host2's
  // is lost.
  fault::registry().arm(fault::points::kPeerCacheInvalidateLost,
                        {.after = 1, .max_fires = 1});
  c->peer_directory()->invalidate(c->daemon("host1"), "datanode1", block);
  ASSERT_EQ(pread(*c, "client3", kChunk, kChunk), expected(kChunk, kChunk));
  fault::registry().arm(fault::points::kPeerCacheStalePeer, {.every = 1, .max_fires = 1});
  const std::uint64_t owner_misses = c->daemon("host1")->stats_snapshot().cache_misses;
  const std::uint64_t sum = pread(*c, "client4", 0, kChunk);
  EXPECT_EQ(sum, expected(0, kChunk));
  // The owner's cache missed twice: once as a holder, once for the fill.
  EXPECT_EQ(c->daemon("host1")->stats_snapshot().cache_misses, owner_misses + 2);
  const DaemonStats s4 = c->daemon("host4")->stats_snapshot();
  EXPECT_EQ(s4.peer_dir_hits, 1u);
  EXPECT_EQ(s4.peer_stale_rejects, 1u);
  EXPECT_EQ(s4.peer_fetches, 0u);
  EXPECT_EQ(s4.peer_fallbacks, 1u);
  EXPECT_EQ(s4.remote_reads, 1u);
  expect_pinned(observe(*c, sum),
                Pinned{11295043679626050557u, 9641953, 4186394353233757303u, 316u});
}

// The RDMA link drops just as the owner starts its active push: the
// stream fails over to the user-space TCP transport and completes.
TEST(ReadPathDigest, RemoteWholeWindowRdmaFailoverToTcp) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  c->enable_vread(Transport::kRdma);
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  // The open's transport choice passes; the stream's fails over.
  fault::registry().arm(fault::points::kRdmaDown, {.after = 1, .max_fires = 1});
  const std::uint64_t sum = pread(*c, "client", 0, kBlockBytes);
  EXPECT_EQ(sum, expected(0, kBlockBytes));
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  EXPECT_EQ(s.rdma_failovers, 1u);
  ASSERT_EQ(s.peers.size(), 1u);
  EXPECT_EQ(s.peers[0].transport, "tcp");
  EXPECT_EQ(s.peers[0].bytes, kBlockBytes);
  expect_pinned(observe(*c, sum),
                Pinned{4744696722538584374u, 32871015, 11377542811373493946u, 489u});
}

// The owner's daemon restarts between the open and the read: its push
// finds no descriptor and answers BAD_FD before the first chunk.
sim::Task read_after_owner_restart(Cluster* c, std::string block, Status* result) {
  LibVread* lib = c->libvread("client");
  std::uint64_t vfd = 0;
  Status st;
  co_await lib->open(sim::Name(block), sim::Name("datanode2"), vfd, st);
  if (!st.ok()) {
    *result = st;
    co_return;
  }
  c->daemon("host2")->restart();
  hdfs::ReadRequest rr;
  rr.vfd = vfd;
  rr.offset = 0;
  rr.len = kBlockBytes;
  hdfs::ReadResult res;
  co_await lib->read(rr, res);
  *result = res.status;
  co_await lib->close(vfd);
}

TEST(ReadPathDigest, RemoteWholeWindowOwnerError) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  c->enable_vread(Transport::kRdma);
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::string block = c->namenode().all_blocks("/f").front().name;
  Status result;
  c->run_job(read_after_owner_restart(c.get(), block, &result));
  EXPECT_EQ(result.code(), StatusCode::kBadFd) << result.to_string();
  EXPECT_EQ(c->daemon("host2")->restarts(), 1u);
  EXPECT_EQ(c->daemon("host1")->remote_reads(), 0u);
  expect_pinned(observe(*c, static_cast<std::uint64_t>(result.code())),
                Pinned{3u, 179530, 8979301412008848191u, 64u});
}

// ---- hedge cancel between chunks ----

TEST(ReadPathDigest, HedgeCancelMidStreamOnLocalLoop) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread();
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::string block = c->namenode().all_blocks("/f").front().name;
  Status result;
  c->run_job(cancelled_leg(c.get(), c->libvread("client"), block, "datanode1",
                           sim::ms(2), &result));
  EXPECT_EQ(result.code(), StatusCode::kCancelled) << result.to_string();
  VReadDaemon* d = c->daemon("host1");
  EXPECT_EQ(d->stats_snapshot().hedge_cancelled, 1u);
  EXPECT_GT(uncharged(*d), 0u);  // at least one chunk was in the ring
  expect_pinned(observe(*c, uncharged(*d)),
                Pinned{262144u, 6045292, 8605419886537438031u, 64u});
}

TEST(ReadPathDigest, HedgeCancelMidStreamOnPeerTierLoop) {
  RegistryGuard guard;
  auto c = testutil::racked_bed(2, 2, 0, 0);
  c->preload_file("/f", kFileBytes, kSeed, {{"datanode1"}});
  c->enable_vread(testutil::validated(peer_tier(Transport::kRdma)));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::string block = c->namenode().all_blocks("/f").front().name;
  Status result;
  c->run_job(cancelled_leg(c.get(), c->libvread("client2"), block, "datanode1",
                           sim::ms(2), &result));
  EXPECT_EQ(result.code(), StatusCode::kCancelled) << result.to_string();
  VReadDaemon* d = c->daemon("host2");
  EXPECT_EQ(d->stats_snapshot().hedge_cancelled, 1u);
  EXPECT_GT(uncharged(*d), 0u);
  expect_pinned(observe(*c, uncharged(*d)),
                Pinned{262144u, 6371268, 16056344811088509122u, 100u});
}

// Peer tier off and coalescing off: the leg leads no fill, so the owner
// checks the flag inside its push and sends the cancel marker after the
// chunks already on the wire.
TEST(ReadPathDigest, RemoteWholeWindowHedgeCancelByOwner) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  DaemonConfig dc;
  dc.coalesce.enabled = false;
  c->enable_vread(testutil::validated(dc));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::string block = c->namenode().all_blocks("/f").front().name;
  Status result;
  c->run_job(cancelled_leg(c.get(), c->libvread("client"), block, "datanode2",
                           sim::ms(2), &result));
  EXPECT_EQ(result.code(), StatusCode::kCancelled) << result.to_string();
  VReadDaemon* d = c->daemon("host1");
  EXPECT_EQ(d->stats_snapshot().hedge_cancelled, 1u);
  EXPECT_GT(uncharged(*d), 0u);
  expect_pinned(observe(*c, uncharged(*d)),
                Pinned{262144u, 6309486, 5417346402302974863u, 87u});
}


// ---- client read pipeline (DfsInputStream) ----

// `len` bytes from `start` through the stream cursor (read1), `chunk` bytes
// per call.
sim::Task sequential_checksum(hdfs::DfsClient* client, std::string path,
                              std::uint64_t start, std::uint64_t len, std::uint64_t chunk,
                              std::uint64_t* checksum) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  in->seek(start);
  Buffer all;
  while (all.size() < len) {
    Buffer part;
    co_await in->read(std::min(chunk, len - all.size()), part);
    if (part.empty()) break;
    all.append(part);
  }
  *checksum = all.size() == len ? all.checksum() : 0;
  co_await in->close();
}

// One positional read (read2) with the client's fan-out set to `fanout`,
// started after `start_at`. An HdfsError lands in `error` instead of
// escaping.
sim::Task positional(hdfs::DfsClient* client, std::string path, std::uint64_t offset,
                     std::uint64_t len, std::size_t fanout, sim::SimTime start_at,
                     std::uint64_t* checksum, std::string* error, sim::Latch* done) {
  if (start_at > 0) co_await client->vm().host().sim().delay(start_at);
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  hdfs::ReadRequest req;
  req.offset = offset;
  req.len = len;
  client->set_pread_parallelism(fanout);
  hdfs::ReadResult res;
  try {
    co_await in->read(req, res);
    *checksum = res.data.size() == len ? res.data.checksum() : 0;
  } catch (const hdfs::HdfsError& e) {
    *error = e.what();
  }
  co_await in->close();
  if (done != nullptr) done->count_down();
}

std::uint64_t pread_fanout(Cluster& c, const std::string& client_vm, std::uint64_t offset,
                           std::uint64_t len, std::size_t fanout,
                           std::string* error = nullptr) {
  std::uint64_t sum = 0;
  std::string err;
  c.run_job(positional(c.client(client_vm), "/f", offset, len, fanout, 0, &sum, &err,
                       nullptr));
  if (error != nullptr) *error = err;
  return sum;
}

// Hedge policy that fires after 200us: `warmup` is out of reach, so
// `max_delay` is used verbatim.
hdfs::HedgeConfig eager_hedge() {
  hdfs::HedgeConfig hc;
  hc.enabled = true;
  hc.min_delay = sim::us(100);
  hc.max_delay = sim::us(200);
  hc.warmup = 1u << 30;
  return hc;
}

// Three racked hosts, "/f" (three 4 MB blocks) replicated on `replicas`,
// vRead with four daemon workers.
std::unique_ptr<Cluster> hedge_bed(std::vector<std::string> replicas,
                                   DaemonConfig dc = peer_tier(Transport::kRdma)) {
  dc.peer_cache.enabled = false;
  auto c = testutil::racked_bed(3, 3, 0, 0);
  c->preload_file("/f", 3 * kBlockBytes, kSeed, {std::move(replicas)});
  c->enable_vread(testutil::validated(dc));
  return c;
}

TEST(ReadPathDigest, ClientSequentialReadAcrossBlockBoundary) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread();
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  // 768 KB calls from 1 MB before the boundary: the second call spans it,
  // so one read1 call issues two block-range reads.
  const std::uint64_t start = kBlockBytes - (1 << 20);
  std::uint64_t sum = 0;
  c->run_job(
      sequential_checksum(c->client("client"), "/f", start, 2 << 20, 768 << 10, &sum));
  EXPECT_EQ(sum, expected(start, 2 << 20));
  hdfs::DfsClient* client = c->client("client");
  EXPECT_EQ(client->vread_path_reads(), 4u);
  EXPECT_EQ(client->socket_path_reads(), 0u);
  EXPECT_EQ(client->vfd_cache_hits(), 2u);
  expect_pinned(observe(*c, sum),
                Pinned{8371993297784441209u, 22196548, 6822644890936079911u, 244u});
}

TEST(ReadPathDigest, ClientPositionalSerialAcrossBlockBoundary) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread();
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t start = kBlockBytes - (1 << 20);
  const std::uint64_t sum = pread_fanout(*c, "client", start, 2 << 20, 1);
  EXPECT_EQ(sum, expected(start, 2 << 20));
  EXPECT_EQ(c->client("client")->vread_path_reads(), 2u);
  EXPECT_EQ(c->client("client")->socket_path_reads(), 0u);
  expect_pinned(observe(*c, sum),
                Pinned{8371993297784441209u, 21065090, 14322760147217296681u, 230u});
}

TEST(ReadPathDigest, ClientPositionalFanoutOverThreeBlocks) {
  RegistryGuard guard;
  auto c = testutil::local_bed(3 * kBlockBytes, kSeed);
  DaemonConfig dc;
  dc.workers = 4;
  c->enable_vread(testutil::validated(dc));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t start = 1 << 20;
  const std::uint64_t len = 3 * kBlockBytes - (2 << 20);
  const std::uint64_t sum = pread_fanout(*c, "client", start, len, 4);
  EXPECT_EQ(sum, expected(start, len));
  EXPECT_EQ(c->client("client")->vread_path_reads(), 3u);
  EXPECT_EQ(c->client("client")->vfd_cache_misses(), 3u);
  expect_pinned(observe(*c, sum),
                Pinned{3529949871636552581u, 72190571, 11903428090627050807u, 925u});
}

// Vanilla fan-out: the three parts share the one cached datanode
// connection, serialized by its mutex.
TEST(ReadPathDigest, ClientSocketPositionalFanoutOverThreeBlocks) {
  RegistryGuard guard;
  auto c = testutil::local_bed(3 * kBlockBytes, kSeed);
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t start = 1 << 20;
  const std::uint64_t len = 3 * kBlockBytes - (2 << 20);
  const std::uint64_t sum = pread_fanout(*c, "client", start, len, 4);
  EXPECT_EQ(sum, expected(start, len));
  EXPECT_EQ(c->client("client")->socket_path_reads(), 3u);
  expect_pinned(observe(*c, sum),
                Pinned{3529949871636552581u, 123478949, 12105177295597440652u, 3058u});
}

TEST(ReadPathDigest, ClientHedgeAvertedWhenPrimaryWins) {
  RegistryGuard guard;
  auto c = hedge_bed({"datanode1", "datanode2", "datanode3"});
  hdfs::HedgeConfig hc;
  hc.enabled = true;  // the 20 ms default delay outlasts a 512 KB local read
  hc.warmup = 1u << 30;
  c->client("client1")->set_hedge(hc);
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t sum = pread_fanout(*c, "client1", 0, 512 << 10, 4);
  EXPECT_EQ(sum, expected(0, 512 << 10));
  EXPECT_EQ(c->client("client1")->hedge_averted(), 1u);
  EXPECT_EQ(c->client("client1")->hedge_launched(), 0u);
  expect_pinned(observe(*c, sum),
                Pinned{18416522852793289551u, 20027750, 8538929498593354335u, 107u});
}

TEST(ReadPathDigest, ClientHedgeSecondLegWins) {
  RegistryGuard guard;
  DaemonConfig dc = peer_tier(Transport::kRdma);
  dc.cache_bytes = 0;  // every read reaches the device, where GC lives
  dc.disk.enabled = true;
  dc.disk.seed = 21;
  dc.disk.gc_period = sim::ms(10);
  dc.disk.gc_duration = sim::ms(8);
  auto c = hedge_bed({"datanode2", "datanode3"}, dc);
  c->client("client1")->set_hedge(eager_hedge());
  // A zero hedge delay: both legs run the whole read side by side.
  fault::registry().arm(fault::points::kHedgeBothSlow, {.every = 1});
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    sum = pread_fanout(*c, "client1", i * (512 << 10), 256 << 10, 4);
    EXPECT_EQ(sum, expected(i * (512 << 10), 256 << 10));
  }
  EXPECT_EQ(c->client("client1")->hedge_launched(), 4u);
  EXPECT_GT(c->client("client1")->hedge_wins(), 0u);
  expect_pinned(observe(*c, sum),
                Pinned{8031802932297719289u, 32339720, 2005115990318583491u, 671u});
}

TEST(ReadPathDigest, ClientHedgeAllLegsFailSurfacesPrimaryError) {
  RegistryGuard guard;
  auto c = hedge_bed({"datanode2", "datanode3"});
  c->client("client1")->set_hedge(eager_hedge());
  // Every vRead submit is shed and every datanode answers "missing": the
  // hedge leg fails to open, and the primary fails on vRead and then on
  // both replicas' sockets.
  fault::registry().arm(fault::points::kAdmissionShed, {.every = 1});
  fault::registry().arm(fault::points::kDatanodeReadFail, {.every = 1});
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  std::string error;
  const std::uint64_t sum = pread_fanout(*c, "client1", 0, 256 << 10, 4, &error);
  EXPECT_EQ(sum, 0u);
  const std::string block = c->namenode().all_blocks("/f").front().name;
  EXPECT_EQ(error, "datanode datanode3 missing " + block);
  EXPECT_GT(c->client("client1")->hedge_launched(), 0u);
  EXPECT_EQ(c->client("client1")->hedge_wins(), 0u);
  EXPECT_GT(c->client("client1")->vread_fallback_reads(), 0u);
  expect_pinned(observe(*c, error.size()),
                Pinned{35u, 1443262, 15601228298504683983u, 337u});
}

TEST(ReadPathDigest, ClientVreadFallbackCooldownThenReprobe) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread();
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  // The open passes; the first read is shed through the library's whole
  // retry budget, so the descriptor is dropped, a cooldown starts and the
  // rest of the file comes over the socket.
  fault::registry().arm(fault::points::kAdmissionShed, {.after = 1, .max_fires = 3});
  ASSERT_EQ(dfsio_read(*c, "client"), expected_file());
  hdfs::DfsClient* client = c->client("client");
  EXPECT_EQ(client->vread_overloaded(), 1u);
  EXPECT_EQ(client->vread_cooldowns(), 1u);
  EXPECT_EQ(client->vread_fallback_reads(), 1u);
  EXPECT_GT(client->vread_suppressed(), 0u);
  // Past the cooldown the next open re-probes, and vRead serves again.
  c->run_job(testutil::idle(c.get(), client->vread_fallback_cooldown()));
  const std::uint64_t reads_before = client->vread_path_reads();
  const std::uint64_t sum = pread_fanout(*c, "client", 0, kChunk, 4);
  EXPECT_EQ(sum, expected(0, kChunk));
  EXPECT_EQ(client->vread_reprobes(), 1u);
  EXPECT_EQ(client->vread_path_reads(), reads_before + 1);
  expect_pinned(observe(*c, sum),
                Pinned{11295043679626050557u, 129345470, 4067785927650191976u, 2300u});
}

// The client VM hosts a replica of every block: reads come straight off
// its own filesystem. Hedging stands down for the same reason.
TEST(ReadPathDigest, ClientShortCircuitLocalRead) {
  RegistryGuard guard;
  auto c = std::make_unique<Cluster>(testutil::small_blocks());
  c->add_host("host1");
  c->add_host("host2");
  c->add_vm("host1", "client");
  c->create_namenode("client");
  c->add_datanode_in_vm("client");
  c->add_datanode("host2", "datanode2");
  c->add_client("client");
  c->preload_file("/f", kFileBytes, kSeed, {{"client", "datanode2"}});
  c->enable_vread();
  hdfs::DfsClient* client = c->client("client");
  client->set_short_circuit(true);
  client->set_hedge(eager_hedge());
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  const std::uint64_t sum = dfsio_read(*c, "client");
  EXPECT_EQ(sum, expected_file());
  EXPECT_EQ(client->short_circuit_reads(), 8u);
  EXPECT_EQ(client->vfd_cache_misses(), 0u);
  EXPECT_EQ(client->hedge_launched() + client->hedge_averted(), 0u);
  expect_pinned(observe(*c, sum),
                Pinned{11579688884377281248u, 70124484, 12334600594410345909u, 189u});
}

// Vanilla sequential reads: the co-located replica's stream answers
// "missing" once, and the read fails over to the remote replica.
TEST(ReadPathDigest, ClientSocketStreamReplicaFailover) {
  RegistryGuard guard;
  testutil::Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/f", kFileBytes, kSeed, {{"datanode1", "datanode2"}});
  c.drop_all_caches();
  c.sim().enable_dispatch_digest();
  fault::registry().arm(fault::points::kDatanodeReadFail, {.every = 1, .max_fires = 1});
  const std::uint64_t sum = dfsio_read(c, "client");
  EXPECT_EQ(sum, expected_file());
  EXPECT_EQ(fault::registry().fires(fault::points::kDatanodeReadFail), 1u);
  EXPECT_EQ(c.client("client")->socket_path_reads(), 8u);
  EXPECT_GT(c.datanode("datanode2")->bytes_served(), 0u);
  expect_pinned(observe(c, sum),
                Pinned{11579688884377281248u, 71596650, 12645532083785138705u, 2928u});
}

// Staggered 8 KB preads of one block by separate streams of one client
// VM: every other one ends at the block's end and so closes the shared
// descriptor (Algorithm 1's close).
sim::Task staggered_preads(Cluster* c, std::size_t n, sim::SimTime gap,
                           std::vector<std::uint64_t>* sums,
                           std::vector<std::string>* errs) {
  sim::Latch done(c->sim(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t off = i % 2 == 0 ? kBlockBytes - (8 << 10) : i * (64 << 10);
    c->sim().spawn(positional(c->client("client"), "/f", off, 8 << 10, 4,
                              static_cast<sim::SimTime>(i) * gap, &(*sums)[i], &(*errs)[i],
                              &done));
  }
  co_await done.wait();
}

// Found, not fixed (ROADMAP): the descriptor hash is shared by every
// stream of a client VM, and a pread that ends at its block's end closes
// the descriptor and only then erases it. A sibling pread that looked the
// descriptor up during that close reads with a closed vfd, gets BAD_FD
// (stale: no cooldown), closes it a second time and falls back to the
// socket. This pins today's behaviour; a fix changes the event order.
TEST(ReadPathDigest, ClientSharedDescriptorCloseRace) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  DaemonConfig dc;
  dc.workers = 4;
  c->enable_vread(testutil::validated(dc));
  c->drop_all_caches();
  c->sim().enable_dispatch_digest();
  constexpr std::size_t kReads = 12;
  std::vector<std::uint64_t> sums(kReads);
  std::vector<std::string> errs(kReads);
  c->run_job(staggered_preads(c.get(), kReads, sim::us(30), &sums, &errs));
  std::uint64_t folded = 0;
  for (std::size_t i = 0; i < kReads; ++i) {
    const std::uint64_t off = i % 2 == 0 ? kBlockBytes - (8 << 10) : i * (64 << 10);
    EXPECT_EQ(sums[i], expected(off, 8 << 10)) << i << ": " << errs[i];
    folded = folded * 31 + sums[i];
  }
  hdfs::DfsClient* client = c->client("client");
  EXPECT_EQ(client->vread_fallback_reads(), 2u);
  EXPECT_EQ(client->socket_path_reads(), 2u);
  EXPECT_EQ(client->vread_cooldowns(), 0u);
  EXPECT_EQ(client->vread_overloaded(), 0u);
  expect_pinned(observe(*c, folded),
                Pinned{9728726947246608993u, 2000289, 3218456632541124766u, 691u});
}

}  // namespace
}  // namespace vread::core
