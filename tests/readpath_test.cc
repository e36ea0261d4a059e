// Exactness guard for the daemon's read-serving paths (DESIGN.md §10).
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
                Pinned{11579688884377281248u, 65916218, 2239040773013655605u, 1378u});
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
                Pinned{11295043679626050557u, 8695660, 6970436446507027988u, 201u});
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
                Pinned{11579688884377281248u, 78275158, 7205122814594336393u, 1985u});
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
                Pinned{262144u, 6371818, 6260405295878330513u, 102u});
}

}  // namespace
}  // namespace vread::core
