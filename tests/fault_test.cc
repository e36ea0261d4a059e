// Fault-injection & graceful-degradation coverage: the fault registry's
// deterministic/probabilistic semantics, and one end-to-end test per fault
// class (mount refresh failure, stale dentry lookup, cache corruption, shm
// timeout, shm corruption, daemon crash, remote peer down, RDMA link down)
// proving the degradation contract — byte-identical contents via bounded
// retries and socket fallback, with every step observable through counters.
//
// All suites here are named Fault* so CI can re-run exactly this file
// under a global VREAD_FAULT_SCHEDULE chaos baseline (ctest -R '^Fault').
// Assertions that only hold without a baseline are gated on the env var.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "core/libvread.h"
#include "fault/fault.h"
#include "fs/simfs.h"
#include "hdfs/datanode.h"
#include "mem/buffer.h"
#include "metrics/fault_stats.h"
#include "testutil.h"
#include "virt/vm.h"

namespace vread {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;
using mem::Buffer;
using testutil::chaos_baseline;
using testutil::idle;
using testutil::local_bed;
using testutil::RegistryGuard;
using testutil::remote_bed;

// --- registry semantics (local Registry instances: immune to the chaos
// baseline, which only applies to the process-global registry) ---

TEST(FaultRegistry, EveryAfterMaxFireDeterministically) {
  fault::Registry r;
  r.arm("test.unit.det", {.every = 3, .after = 2, .max_fires = 2});
  std::vector<int> fired;
  for (int hit = 1; hit <= 12; ++hit) {
    if (r.should_fire("test.unit.det")) fired.push_back(hit);
  }
  // Warmup skips hits 1-2, then every 3rd eligible hit, budget of 2 fires.
  EXPECT_EQ(fired, (std::vector<int>{3, 6}));
  EXPECT_EQ(r.hits("test.unit.det"), 12u);
  EXPECT_EQ(r.fires("test.unit.det"), 2u);
}

TEST(FaultRegistry, AfterAndBudgetAloneFireEveryEligibleHit) {
  fault::Registry r;
  r.arm("test.unit.budget", {.after = 2, .max_fires = 1});
  std::vector<int> fired;
  for (int hit = 1; hit <= 6; ++hit) {
    if (r.should_fire("test.unit.budget")) fired.push_back(hit);
  }
  // No rate knob: the first post-warmup hit fires, then the budget is gone.
  EXPECT_EQ(fired, (std::vector<int>{3}));
}

TEST(FaultRegistry, ProbabilityStreamFollowsSeed) {
  auto sample = [](std::uint64_t seed) {
    fault::Registry r;
    r.seed(seed);
    r.arm("test.unit.prob", {.probability = 0.5});
    std::vector<bool> v;
    for (int i = 0; i < 64; ++i) v.push_back(r.should_fire("test.unit.prob"));
    return v;
  };
  EXPECT_EQ(sample(7), sample(7));  // same seed, same fault sequence
  EXPECT_NE(sample(7), sample(8));
  const std::uint64_t fires = [&] {
    std::uint64_t n = 0;
    for (bool b : sample(7)) n += b ? 1 : 0;
    return n;
  }();
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
}

TEST(FaultRegistry, UnarmedPointCountsHitsButNeverFires) {
  fault::Registry r;
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(r.should_fire("test.unit.unarmed"));
  EXPECT_EQ(r.hits("test.unit.unarmed"), 10u);
  EXPECT_EQ(r.fires("test.unit.unarmed"), 0u);
  EXPECT_FALSE(r.armed("test.unit.unarmed"));
}

TEST(FaultRegistry, ScheduleGrammarParsesAndRejectsMalformed) {
  fault::Registry r;
  r.load_schedule("test.a:every=13;test.b:after=50,max=1");
  EXPECT_TRUE(r.armed("test.a"));
  EXPECT_TRUE(r.armed("test.b"));
  // every=13 with no warmup: hit 1 fires, 2..13 don't, 14 fires again.
  EXPECT_TRUE(r.should_fire("test.a"));
  for (int i = 2; i <= 13; ++i) EXPECT_FALSE(r.should_fire("test.a")) << i;
  EXPECT_TRUE(r.should_fire("test.a"));

  EXPECT_THROW(r.load_schedule("no-colon-here"), std::invalid_argument);
  EXPECT_THROW(r.load_schedule("test.c:bogus=1"), std::invalid_argument);
  EXPECT_THROW(r.load_schedule("test.c:every=notanumber"), std::invalid_argument);
}

TEST(FaultRegistry, ResetRestoresBaselineSchedule) {
  fault::Registry r;
  r.set_baseline("test.base:every=1");
  EXPECT_TRUE(r.armed("test.base"));
  r.disarm("test.base");
  r.arm("test.extra", {.every = 1});
  (void)r.should_fire("test.base");
  r.reset();
  EXPECT_TRUE(r.armed("test.base"));    // baseline re-applied
  EXPECT_FALSE(r.armed("test.extra"));  // ad-hoc arming gone
  EXPECT_EQ(r.hits("test.base"), 0u);   // counters zeroed
  r.set_baseline("");
  EXPECT_FALSE(r.armed("test.base"));
}

std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t, bool>> rows_of(
    const fault::Registry& r) {
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t, bool>> out;
  for (const fault::Registry::Row& row : r.rows()) {
    out.emplace_back(row.name, row.hits, row.fires, row.armed);
  }
  return out;
}

TEST(FaultRegistry, PointAndNameHitsAgreeAcrossResetAndBaseline) {
  // One registry is driven through registered Points, the other through
  // plain names; every decision, counter, row and hook call must match,
  // including after reset() drops the state the Points had cached.
  fault::Point det{"test.pt.det"};
  fault::Point prob{"test.pt.prob"};
  fault::Point quiet{"test.pt.quiet"};
  fault::Registry by_point;
  fault::Registry by_name;
  std::vector<std::string> hooked[2];
  int side = 0;
  for (fault::Registry* r : {&by_point, &by_name}) {
    r->seed(11);
    r->set_baseline("test.pt.det:every=3,after=1;test.pt.prob:p=0.4,max=5");
    r->set_fire_hook([&hooked, s = side++](const std::string& p) { hooked[s].push_back(p); });
  }
  for (int round = 0; round < 3; ++round) {
    if (round == 2) {
      by_point.arm(quiet, {.every = 2});
      by_name.arm("test.pt.quiet", {.every = 2});
    }
    std::vector<bool> fired[2];
    for (int i = 0; i < 40; ++i) {
      for (fault::Point* pt : {&det, &prob, &quiet}) {
        fired[0].push_back(by_point.should_fire(*pt));
        fired[1].push_back(by_name.should_fire(std::string(*pt)));
      }
    }
    EXPECT_EQ(fired[0], fired[1]) << "round " << round;
    EXPECT_EQ(rows_of(by_point), rows_of(by_name)) << "round " << round;
    EXPECT_EQ(by_point.hits(det), 40u);
    EXPECT_EQ(by_point.fires(det), 13u);  // hits 2, 5, ..., 38
    EXPECT_EQ(by_point.fires(quiet), round == 2 ? 20u : 0u);
    by_point.reset();
    by_name.reset();
    EXPECT_EQ(by_point.hits(det), 0u);
    EXPECT_TRUE(by_point.armed(det));
  }
  EXPECT_EQ(hooked[0], hooked[1]);
  EXPECT_FALSE(hooked[0].empty());
  // A Point that cached one registry's state never trusts it in another.
  fault::Registry other;
  EXPECT_FALSE(other.should_fire(det));
  EXPECT_EQ(other.hits(det), 1u);
  EXPECT_EQ(by_point.hits(det), 0u);
}

TEST(FaultRegistry, ScopedFaultRestoresGlobalBaseline) {
  RegistryGuard guard;
  {
    fault::ScopedFault f("test.scoped.point", {.every = 1});
    EXPECT_TRUE(fault::registry().armed("test.scoped.point"));
    EXPECT_TRUE(fault::registry().should_fire("test.scoped.point"));
  }
  EXPECT_FALSE(fault::registry().armed("test.scoped.point"));
}

// The shm and daemon-to-daemon retry loops share one fixed policy: three
// tries in all, a 200 us first backoff doubling per retry, capped at 2^20x.
TEST(FaultRetryPolicy, FixedAttemptsAndDoublingBackoff) {
  EXPECT_EQ(kRetryAttempts, 3);
  EXPECT_EQ(retry_backoff_before(2), sim::us(200));
  EXPECT_EQ(retry_backoff_before(3), sim::us(400));
  EXPECT_EQ(retry_backoff_before(4), sim::us(800));
  EXPECT_EQ(retry_backoff_before(1), sim::us(200));  // never below the base
  EXPECT_EQ(retry_backoff_before(22), sim::us(200) << 20);
  EXPECT_EQ(retry_backoff_before(100), sim::us(200) << 20);  // the cap
}

TEST(FaultMetrics, TablesRenderPointsAndCounters) {
  RegistryGuard guard;
  fault::registry().arm("test.metrics.point", {.every = 2});
  for (int i = 0; i < 3; ++i) (void)fault::registry().should_fire("test.metrics.point");
  std::ostringstream fault_os;
  metrics::fault_table().print(fault_os);
  EXPECT_NE(fault_os.str().find("test.metrics.point"), std::string::npos);

  metrics::DegradationCounters d;
  d.client_fallback_reads = 42;
  std::ostringstream degr_os;
  metrics::degradation_table(d).print(degr_os);
  EXPECT_NE(degr_os.str().find("client fallback reads"), std::string::npos);
  EXPECT_NE(degr_os.str().find("42"), std::string::npos);
}

// --- fs.loop.refresh_fail: the mount silently keeps its stale snapshot ---

TEST(FaultMountRefresh, RefreshFailureDegradesToSocketsThenRecovers) {
  RegistryGuard guard;
  const std::uint64_t bytes = 8ULL << 20;
  auto c = local_bed(/*bytes=*/0, 0);  // file is written AFTER the mount
  c->enable_vread();
  c->client("client")->set_vread_fallback_cooldown(sim::ms(2));
  fault::registry().arm(fault::points::kMountRefreshFail, {.every = 1});

  // Every vRead_update-triggered refresh fails, so the mount never sees
  // the new blocks; reads must degrade to the vanilla socket path.
  DfsIoResult wr;
  c->run_job(TestDfsIo::write(*c, "client", "/f", bytes, 70,
                              Cluster::place_on({"datanode1"}), wr));
  c->drop_all_caches();
  DfsIoResult r1;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r1));
  EXPECT_EQ(r1.bytes, bytes);
  EXPECT_EQ(r1.checksum, Buffer::deterministic(70, 0, bytes).checksum());
  EXPECT_GT(c->daemon("host1")->refresh_failures(), 0u);
  EXPECT_GT(c->daemon("host1")->failed_opens(), 0u);
  EXPECT_GT(c->client("client")->vread_fallback_reads(), 0u);
  EXPECT_GT(c->client("client")->vread_cooldowns(), 0u);
  if (!chaos_baseline()) {
    EXPECT_EQ(c->daemon("host1")->bytes_read(), 0u);  // shortcut fully out
  }

  // Fault cleared + cooldown expired: the next open refreshes the mount
  // for real and the shortcut comes back.
  fault::registry().reset();
  c->run_job(idle(c.get(), sim::ms(10)));
  DfsIoResult r2;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r2));
  EXPECT_EQ(r2.checksum, r1.checksum);
  EXPECT_GT(c->daemon("host1")->bytes_read(), 0u);
  EXPECT_GE(c->client("client")->vread_reprobes(), 1u);
}

// --- fs.loop.stale_lookup: one dentry-cache miss, then business as usual ---

TEST(FaultStaleLookup, SingleLookupMissFallsBackForOneBlockOnly) {
  RegistryGuard guard;
  const std::uint64_t bytes = 8ULL << 20;
  auto c = local_bed(bytes, 71);
  c->enable_vread();
  c->client("client")->set_vread_fallback_cooldown(0);  // re-probe every open
  c->drop_all_caches();
  fault::registry().arm(fault::points::kMountStaleLookup, {.every = 1, .max_fires = 1});

  DfsIoResult r;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r));
  EXPECT_EQ(r.checksum, Buffer::deterministic(71, 0, bytes).checksum());
  EXPECT_EQ(fault::registry().fires(fault::points::kMountStaleLookup), 1u);
  EXPECT_GE(c->client("client")->vread_fallback_reads(), 1u);
  EXPECT_GT(c->daemon("host1")->bytes_read(), 0u);  // later opens recovered
}

// --- core.cache.corrupt: a rotted cache entry fails its hit-time re-hash ---

TEST(FaultCacheCorrupt, RehashOnHitDropsRottedEntryAndReadStaysByteIdentical) {
  RegistryGuard guard;
  const std::uint64_t bytes = 8ULL << 20;
  auto c = local_bed(bytes, 79);
  c->enable_vread();
  DfsIoResult warm;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, warm));  // fills the cache
  core::BlockCache& cache = c->daemon("host1")->cache();
  const std::string blk = c->namenode().all_blocks("/f").front().name;
  const Buffer hit = cache.lookup("datanode1", blk, 0, 4096);
  ASSERT_EQ(hit, Buffer::deterministic(79, 0, 4096));  // a real hit before arming
  const std::uint64_t resident = cache.bytes();
  // Neither the mount read nor the cache copied: the hit is a view of the
  // datanode image's run, so the flip below must copy on write rather
  // than reach the image.
  fs::SimFs& dn_fs = c->vm("datanode1")->fs();
  const std::uint32_t ino = *dn_fs.lookup(hdfs::DataNode::block_path(blk));
  const Buffer on_image = dn_fs.read(ino, 0, 4096);
  EXPECT_EQ(hit.data(), on_image.data());

  fault::registry().arm(fault::points::kCacheCorrupt, {.every = 1, .max_fires = 1});
  // The flipped byte is caught by re-hashing the cached bytes (a memoized
  // digest would let it through): miss, one integrity failure, entry gone.
  EXPECT_TRUE(cache.lookup("datanode1", blk, 0, 4096).empty());
  EXPECT_EQ(fault::registry().fires(fault::points::kCacheCorrupt), 1u);
  EXPECT_EQ(cache.integrity_failures(), 1u);
  EXPECT_LT(cache.bytes(), resident);
  EXPECT_TRUE(cache.lookup("datanode1", blk, 0, 4096).empty());  // dropped, not re-checked
  EXPECT_EQ(cache.integrity_failures(), 1u);
  // Copy-on-write: the flip touched only the entry's private bytes, never
  // the view an earlier hit handed out nor the image the entry shared.
  EXPECT_EQ(hit, Buffer::deterministic(79, 0, 4096));
  EXPECT_EQ(on_image, Buffer::deterministic(79, 0, 4096));
  EXPECT_EQ(dn_fs.read(ino, 0, bytes / 2), Buffer::deterministic(79, 0, bytes / 2));

  // The dropped range is served from the mount again, byte for byte.
  const std::uint64_t misses = cache.misses();
  DfsIoResult r;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r));
  EXPECT_EQ(r.checksum, Buffer::deterministic(79, 0, bytes).checksum());
  EXPECT_GT(cache.misses(), misses);
  EXPECT_EQ(cache.integrity_failures(), 1u);
  EXPECT_EQ(cache.lookup("datanode1", blk, 0, 4096), Buffer::deterministic(79, 0, 4096));
}

// An insert's reference digest may come from the slab's memo; the hit
// still hashes the bytes it serves. Both ways a flip can land are caught:
// in place in a slab the entry owns alone (which drops the memo), and
// copy-on-write away from a slab still shared with the image run.
TEST(FaultCacheCorrupt, MemoisedInsertDigestIsStillVerifiedOnEveryHit) {
  RegistryGuard guard;
  core::BlockCache cache(1 << 20, "memo-corrupt");
  const Buffer run = Buffer::deterministic(80, 0, 1 << 18);
  const Buffer shared = run.slice(65536, 65536);
  Buffer alone = Buffer::deterministic(81, 0, 65536);
  // Digest both windows first, so the inserts take them from the memo.
  const std::uint64_t shared_digest = run.slice(65536, 65536).remembered_page_digest();
  const std::uint64_t alone_digest = alone.remembered_page_digest();
  ASSERT_TRUE(cache.insert("dn", "shared", 0, shared));
  ASSERT_TRUE(cache.insert("dn", "alone", 0, alone));
  alone = Buffer();  // the entry now owns its slab alone
  EXPECT_EQ(cache.lookup("dn", "alone", 0, 65536).page_digest(), alone_digest);
  EXPECT_EQ(cache.lookup("dn", "shared", 0, 65536).page_digest(), shared_digest);
  EXPECT_EQ(cache.integrity_failures(), 0u);

  fault::registry().arm(fault::points::kCacheCorrupt, {.every = 1, .max_fires = 2});
  EXPECT_TRUE(cache.lookup("dn", "alone", 0, 65536).empty());
  EXPECT_TRUE(cache.lookup("dn", "shared", 0, 65536).empty());
  EXPECT_EQ(fault::registry().fires(fault::points::kCacheCorrupt), 2u);
  EXPECT_EQ(cache.integrity_failures(), 2u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(run, Buffer::deterministic(80, 0, 1 << 18));  // the run kept its bytes
  // Re-inserting the run's window establishes its digest again, correctly.
  ASSERT_TRUE(cache.insert("dn", "shared", 0, run.slice(65536, 65536)));
  EXPECT_EQ(cache.lookup("dn", "shared", 0, 65536), Buffer::deterministic(80, 65536, 65536));
  EXPECT_EQ(cache.integrity_failures(), 2u);

  // Rot that no write path sees (a raw write standing in for a memory
  // fault) leaves the slab's memo stale. The hit hashes the bytes anyway.
  const Buffer rotting = Buffer::deterministic(82, 0, 65536);
  ASSERT_TRUE(cache.insert("dn", "rot", 0, rotting));
  const_cast<std::uint8_t*>(rotting.data())[4096] ^= 0x10;
  EXPECT_TRUE(cache.lookup("dn", "rot", 0, 65536).empty());
  EXPECT_EQ(cache.integrity_failures(), 3u);
}

// The memo is filled by one insert, then a byte rots under it unseen. A
// differently chopped insert over that page takes its reference from the
// stale memo; its first hit hashes the bytes and fails, as does the first
// entry's.
TEST(FaultCacheCorrupt, StaleMemoAtAnotherChopFailsTheFirstHit) {
  RegistryGuard guard;
  core::BlockCache cache(1 << 20, "memo-stale");
  const Buffer run = Buffer::deterministic(83, 0, 1 << 18);
  ASSERT_TRUE(cache.insert("dn", "blk", 0, run.slice(0, 65536)));  // pages 0..15 memoised
  EXPECT_EQ(cache.lookup("dn", "blk", 0, 65536), Buffer::deterministic(83, 0, 65536));
  EXPECT_EQ(cache.integrity_failures(), 0u);

  const_cast<std::uint8_t*>(run.data())[2 * Buffer::kPage + 5] ^= 0x10;
  const std::uint64_t hashed = Buffer::pages_digested();
  ASSERT_TRUE(cache.insert("dn", "blk", 4096, run.slice(4096, 32768)));
  EXPECT_EQ(Buffer::pages_digested(), hashed);  // every page's digest came from the memo
  EXPECT_TRUE(cache.lookup("dn", "blk", 4096, 32768).empty());
  EXPECT_EQ(cache.integrity_failures(), 1u);
  EXPECT_TRUE(cache.lookup("dn", "blk", 0, 65536).empty());
  EXPECT_EQ(cache.integrity_failures(), 2u);
  EXPECT_EQ(cache.bytes(), 0u);
}

// --- virt.shm.timeout: requests vanish; the library's bounded retry ---

TEST(FaultShmTimeout, BoundedRetriesExhaustThenClientFallsBack) {
  RegistryGuard guard;
  const std::uint64_t bytes = 8ULL << 20;
  auto c = local_bed(bytes, 72);
  c->enable_vread();
  const std::string blk = c->namenode().all_blocks("/f").front().name;
  core::LibVread* lib = c->libvread("client");
  fault::registry().arm(fault::points::kShmTimeout, {.every = 1});

  // Direct library call: exactly kRetryAttempts shm round trips, then a
  // retryable TIMEOUT surfaces (the fallback signal for the HDFS client).
  const std::uint64_t hits_before = fault::registry().hits(fault::points::kShmTimeout);
  Status st;
  std::uint64_t vfd = 99;
  auto probe = [](core::LibVread* l, std::string b, std::uint64_t* fd,
                  Status* s) -> sim::Task { co_await l->open(sim::Name(b), "datanode1", *fd, *s); };
  c->run_job(probe(lib, blk, &vfd, &st));
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_TRUE(st.is_retryable());
  EXPECT_EQ(vfd, 0u);
  EXPECT_EQ(fault::registry().hits(fault::points::kShmTimeout) - hits_before,
            static_cast<std::uint64_t>(kRetryAttempts));
  EXPECT_EQ(lib->retries(), 2u);  // 3 attempts = 2 re-issues
  EXPECT_GE(lib->retries_exhausted(), 1u);

  // End to end, the file still reads byte-identically over sockets.
  DfsIoResult r;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r));
  EXPECT_EQ(r.checksum, Buffer::deterministic(72, 0, bytes).checksum());
  EXPECT_GT(c->client("client")->vread_fallback_reads(), 0u);
  EXPECT_EQ(c->daemon("host1")->reads(), 0u);  // no request ever got through
}

// --- virt.shm.corrupt: bad payload absorbed entirely by library retries ---

TEST(FaultShmCorrupt, RetryAbsorbsCorruptResponsesWithoutFallback) {
  RegistryGuard guard;
  const std::uint64_t bytes = 8ULL << 20;
  auto c = local_bed(bytes, 73);
  c->enable_vread();
  c->drop_all_caches();
  // Two corrupt responses in a row: still within the 3-attempt budget.
  fault::registry().arm(fault::points::kShmCorrupt, {.every = 1, .max_fires = 2});

  DfsIoResult r;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r));
  EXPECT_EQ(r.checksum, Buffer::deterministic(73, 0, bytes).checksum());
  EXPECT_EQ(fault::registry().fires(fault::points::kShmCorrupt), 2u);
  EXPECT_GE(c->libvread("client")->retries(), 2u);
  EXPECT_GT(c->daemon("host1")->bytes_read(), 0u);
  if (!chaos_baseline()) {
    // The degradation never surfaced: zero socket fallbacks.
    EXPECT_EQ(c->client("client")->vread_fallback_reads(), 0u);
    EXPECT_EQ(c->libvread("client")->retries_exhausted(), 0u);
  }
}

// --- core.daemon.crash: descriptor table lost mid-stream ---

TEST(FaultDaemonCrash, StaleVfdReportsBadFdAndStreamStaysByteIdentical) {
  RegistryGuard guard;
  const std::uint64_t bytes = 8ULL << 20;
  auto c = local_bed(bytes, 74);
  c->enable_vread();
  const std::string blk = c->namenode().all_blocks("/f").front().name;
  core::LibVread* lib = c->libvread("client");

  // Direct drill: open, crash the daemon, read -> BAD_FD (stale, not
  // retryable: the client should re-open, not re-send).
  Status open_st, read_st;
  std::uint64_t vfd = 0;
  Buffer buf;
  auto drill = [](Cluster* cl, core::LibVread* l, std::string b, std::uint64_t* fd,
                  Status* os, Status* rs, Buffer* out) -> sim::Task {
    co_await l->open(sim::Name(b), "datanode1", *fd, *os);
    cl->daemon("host1")->restart();
    co_await l->read(*fd, 0, 1024, *out, *rs);
  };
  c->run_job(drill(c.get(), lib, blk, &vfd, &open_st, &read_st, &buf));
  EXPECT_TRUE(open_st.ok());
  EXPECT_NE(vfd, 0u);
  EXPECT_EQ(read_st.code(), StatusCode::kBadFd);
  EXPECT_TRUE(read_st.is_stale());
  EXPECT_FALSE(read_st.is_retryable());
  EXPECT_EQ(c->daemon("host1")->restarts(), 1u);

  // Spontaneous crash mid-workload: request 9 is a read on block 1's
  // already-open descriptor (per block: open, 4 reads, close), so the
  // client sees BAD_FD and transparently re-opens — bytes identical.
  fault::registry().reset();
  fault::registry().arm(fault::points::kDaemonCrash, {.after = 8, .max_fires = 1});
  c->drop_all_caches();
  DfsIoResult r;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r));
  EXPECT_EQ(r.checksum, Buffer::deterministic(74, 0, bytes).checksum());
  EXPECT_EQ(fault::registry().fires(fault::points::kDaemonCrash), 1u);
  EXPECT_GE(c->daemon("host1")->restarts(), 2u);  // the drill + the fault
  if (!chaos_baseline()) {
    // 2 blocks + at least one re-open after the crash.
    EXPECT_GE(c->daemon("host1")->opens(), 3u + 1u /*drill*/);
    // The BAD_FD chunk itself rode the socket fallback (one 1 MB chunk);
    // everything else came through vRead.
    EXPECT_GE(c->client("client")->vread_fallback_reads(), 1u);
    EXPECT_GE(c->daemon("host1")->bytes_read(), bytes - (1u << 20));
  }
}

// --- core.daemon.peer_down: bounded daemon-to-daemon retries, fallback,
//     and re-probe recovery once the peer answers again ---

TEST(FaultPeerDown, BoundedRetryThenFallbackThenReprobeRecovers) {
  RegistryGuard guard;
  const std::uint64_t bytes = 8ULL << 20;
  auto c = remote_bed(bytes, 75);
  c->enable_vread();
  c->client("client")->set_vread_fallback_cooldown(sim::ms(2));
  c->drop_all_caches();
  fault::registry().arm(fault::points::kPeerDown, {.every = 1});

  DfsIoResult r1;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r1));
  EXPECT_EQ(r1.checksum, Buffer::deterministic(75, 0, bytes).checksum());
  // Each doomed open burned the full retry budget before reporting.
  EXPECT_GE(c->daemon("host1")->remote_retries(),
            static_cast<std::uint64_t>(kRetryAttempts - 1));
  EXPECT_GT(c->daemon("host1")->failed_opens(), 0u);
  EXPECT_EQ(c->daemon("host1")->remote_reads(), 0u);  // peer never reachable
  EXPECT_GT(c->client("client")->vread_fallback_reads(), 0u);
  EXPECT_GT(c->client("client")->vread_cooldowns(), 0u);

  // Peer back up + cooldown expired: the re-probe restores the shortcut.
  fault::registry().reset();
  c->run_job(idle(c.get(), sim::ms(10)));
  DfsIoResult r2;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r2));
  EXPECT_EQ(r2.checksum, r1.checksum);
  EXPECT_GT(c->daemon("host1")->remote_reads(), 0u);
  EXPECT_GE(c->client("client")->vread_reprobes(), 1u);
}

// --- core.daemon.rdma_down: transparent RDMA -> user-space TCP failover ---

TEST(FaultRdmaDown, RemoteReadsFailOverToTcpTransparently) {
  RegistryGuard guard;
  const std::uint64_t bytes = 8ULL << 20;
  auto c = remote_bed(bytes, 76);
  c->enable_vread();  // configured transport: RDMA
  ASSERT_EQ(c->daemon("host1")->transport(), core::Transport::kRdma);
  c->drop_all_caches();
  fault::registry().arm(fault::points::kRdmaDown, {.every = 1});

  DfsIoResult r;
  c->run_job(TestDfsIo::read(*c, "client", "/f", 1 << 20, r));
  // No failed reads, no fallback needed: the failover is below the API.
  EXPECT_EQ(r.checksum, Buffer::deterministic(76, 0, bytes).checksum());
  EXPECT_GT(c->daemon("host1")->rdma_failovers(), 0u);
  EXPECT_GT(c->daemon("host1")->remote_reads(), 0u);
  // The degraded ops burned user-space TCP cycles despite the RDMA config.
  EXPECT_GT(c->acct().group_total("host1", metrics::CycleCategory::kVreadNet) +
                c->acct().group_total("host2", metrics::CycleCategory::kVreadNet),
            0u);
  if (!chaos_baseline()) {
    EXPECT_EQ(c->client("client")->vread_fallback_reads(), 0u);
  }
}

}  // namespace
}  // namespace vread
