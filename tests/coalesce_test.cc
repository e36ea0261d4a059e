// Cross-VM request coalescing (DESIGN.md §12) + the unified ReadRequest
// API surface: DaemonConfig::Validate() typed rejections, CoalesceMap
// single-flight semantics at the unit level, byte-identical overlapping
// concurrent readers across cache-hit/miss/partial-overlap on the local
// and remote paths, single-flight failure fan-out under an armed fault
// schedule, the fill-byte conservation property (per-tenant charges for
// merged fills sum to the bytes the disk actually served), and the
// batched disk submission window.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "core/coalesce.h"
#include "core/libvread.h"
#include "core/vread_daemon.h"
#include "fault/fault.h"
#include "fault/status.h"
#include "hdfs/dfs_client.h"
#include "hdfs/read_request.h"
#include "mem/buffer.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "testutil.h"

namespace vread::core {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using mem::Buffer;
using testutil::chaos_baseline;
using testutil::RegistryGuard;
using testutil::small_blocks;

// ---- DaemonConfig::Validate() ----

TEST(DaemonConfigValidate, DefaultsAreValid) {
  EXPECT_TRUE(DaemonConfig{}.Validate().ok());
}

TEST(DaemonConfigValidate, RejectsZeroWorkers) {
  DaemonConfig dc;
  dc.workers = 0;
  const Status st = dc.Validate();
  EXPECT_EQ(st.code(), StatusCode::kConfig);
}

TEST(DaemonConfigValidate, RejectsZeroShmOutstanding) {
  DaemonConfig dc;
  dc.shm_max_outstanding = 0;
  EXPECT_EQ(dc.Validate().code(), StatusCode::kConfig);
}

TEST(DaemonConfigValidate, RejectsSubSlotCacheButAllowsDisabled) {
  DaemonConfig dc;
  dc.cache_bytes = 1024;  // smaller than one 4 KB shm slot
  EXPECT_EQ(dc.Validate().code(), StatusCode::kConfig);
  dc.cache_bytes = 0;  // explicit "no cache" stays legal
  EXPECT_TRUE(dc.Validate().ok());
}

TEST(DaemonConfigValidate, RejectsBatchLargerThanShmBudget) {
  DaemonConfig dc;
  dc.shm_max_outstanding = 8;
  dc.coalesce.batch_max = 16;
  EXPECT_EQ(dc.Validate().code(), StatusCode::kConfig);
  dc.coalesce.batch_max = 0;  // auto: clamped to the shm budget
  EXPECT_TRUE(dc.Validate().ok());
  dc.coalesce.batch_max = 16;
  dc.coalesce.enabled = false;  // knob is inert when the stage is off
  EXPECT_TRUE(dc.Validate().ok());
}

TEST(DaemonConfigValidate, RejectsDegenerateQos) {
  DaemonConfig dc;
  dc.qos.weights["t"] = 0.0;
  EXPECT_EQ(dc.Validate().code(), StatusCode::kConfig);

  // QoS off: the same knobs are inert.
  dc.qos.enabled = false;
  EXPECT_TRUE(dc.Validate().ok());
}

TEST(DaemonConfigValidate, RejectsZeroTenantShmOutstanding) {
  DaemonConfig dc;
  dc.qos.shm_outstanding["t"] = 0;
  const Status st = dc.Validate();
  EXPECT_EQ(st.code(), StatusCode::kConfig);
  EXPECT_NE(st.to_string().find("qos.shm_outstanding[t] = 0"), std::string::npos)
      << st.to_string();

  dc.qos.shm_outstanding["t"] = 1;
  EXPECT_TRUE(dc.Validate().ok());
  // QoS off: the per-tenant budget is never applied.
  dc.qos.shm_outstanding["t"] = 0;
  dc.qos.enabled = false;
  EXPECT_TRUE(dc.Validate().ok());
}

TEST(DaemonConfigValidate, ConfigStatusRoundTripsTheWire) {
  const Status st(StatusCode::kConfig, "detail");
  EXPECT_EQ(st.to_wire(), kVReadErrConfig);
  EXPECT_EQ(Status::from_wire(kVReadErrConfig).code(), StatusCode::kConfig);
  EXPECT_FALSE(st.is_retryable());
}

TEST(DaemonConfigValidate, DaemonConstructorThrowsOnInvalidConfig) {
  Cluster c(small_blocks());
  c.add_host("host1");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_client("client");
  DaemonConfig dc;
  dc.workers = 0;
  EXPECT_THROW(c.enable_vread(dc), std::invalid_argument);
}

TEST(DaemonConfigValidate, TestBedHelperThrowsWithConfigDetail) {
  DaemonConfig ok;
  EXPECT_NO_THROW(testutil::validated(ok));
  DaemonConfig bad;
  bad.shm_max_outstanding = 0;
  EXPECT_THROW(testutil::validated(bad), std::invalid_argument);
}

// ---- CoalesceMap unit semantics (one Simulation, no cluster) ----

sim::Task unit_waiter(CoalesceMap::FillPtr f, Status* st, Buffer* data,
                      bool* woke) {
  co_await f->done.wait();
  *st = f->status;
  *data = f->data;
  *woke = true;
}

TEST(CoalesceMapUnit, SingleFlightAttachWaitAndFanout) {
  sim::Simulation sim;
  CoalesceMap map(sim, "unit-a");
  EXPECT_EQ(map.attach("dn", "blk", 0, 1024, "a"), nullptr);

  CoalesceMap::FillPtr lead = map.begin("dn", "blk", 0, 4096, "a");
  // Fully-covered window attaches; the same fill serves both waiters.
  CoalesceMap::FillPtr w1 = map.attach("dn", "blk", 0, 4096, "b");
  CoalesceMap::FillPtr w2 = map.attach("dn", "blk", 1024, 1024, "c");
  ASSERT_EQ(w1, lead);
  ASSERT_EQ(w2, lead);
  EXPECT_EQ(lead->waiters, 2u);
  ASSERT_EQ(lead->tenants.size(), 3u);
  EXPECT_EQ(lead->tenants.front(), "a");

  Status st1, st2;
  Buffer d1, d2;
  bool woke1 = false, woke2 = false;
  sim.spawn(unit_waiter(w1, &st1, &d1, &woke1));
  sim.spawn(unit_waiter(w2, &st2, &d2, &woke2));
  map.complete(lead, Buffer::deterministic(9, 0, 4096), Status::Ok(), 4096);
  sim.run();
  EXPECT_TRUE(woke1 && woke2);
  EXPECT_TRUE(st1.ok() && st2.ok());
  EXPECT_EQ(d1.checksum(), Buffer::deterministic(9, 0, 4096).checksum());
  EXPECT_EQ(d2.slice(1024, 1024).checksum(),
            Buffer::deterministic(9, 1024, 1024).checksum());
  EXPECT_EQ(map.hits(), 2u);
  EXPECT_EQ(map.misses(), 1u);
  EXPECT_EQ(map.fill_bytes(), 4096u);
  // Completed fills leave the table: the next request leads fresh.
  EXPECT_EQ(map.attach("dn", "blk", 0, 4096, "d"), nullptr);
}

TEST(CoalesceMapUnit, PartialOverlapDoesNotAttach) {
  sim::Simulation sim;
  CoalesceMap map(sim, "unit-b");
  CoalesceMap::FillPtr lead = map.begin("dn", "blk", 4096, 4096, "a");
  // Straddles the window start / extends past its end / different block:
  // none of these may piggyback on the in-flight fill.
  EXPECT_EQ(map.attach("dn", "blk", 0, 4096, "b"), nullptr);
  EXPECT_EQ(map.attach("dn", "blk", 6144, 4096, "b"), nullptr);
  EXPECT_EQ(map.attach("dn", "other", 4096, 4096, "b"), nullptr);
  // Two non-overlapping windows of one block fill concurrently.
  CoalesceMap::FillPtr other = map.begin("dn", "blk", 65536, 4096, "b");
  EXPECT_NE(other, lead);
  EXPECT_EQ(map.attach("dn", "blk", 65536, 1024, "c"), other);
  map.complete(lead, Buffer(), Status::Ok(), 0);
  map.complete(other, Buffer(), Status::Ok(), 0);
  sim.run();
}

TEST(CoalesceMapUnit, FailureFansTypedStatusAndRetriesSingleFlight) {
  sim::Simulation sim;
  CoalesceMap map(sim, "unit-c");
  CoalesceMap::FillPtr lead = map.begin("dn", "blk", 0, 4096, "a");
  CoalesceMap::FillPtr w = map.attach("dn", "blk", 0, 4096, "b");
  ASSERT_NE(w, nullptr);
  Status st;
  Buffer data;
  bool woke = false;
  sim.spawn(unit_waiter(w, &st, &data, &woke));
  map.complete(lead, Buffer(), Status(StatusCode::kPeerDown, "dn"), 0);
  sim.run();
  EXPECT_TRUE(woke);
  EXPECT_EQ(st.code(), StatusCode::kPeerDown);
  EXPECT_TRUE(data.empty());  // nobody receives partial bytes
  EXPECT_EQ(map.failed_fills(), 1u);
  EXPECT_EQ(map.fill_bytes(), 0u);
  // The failed window left the table: the retry is a fresh single flight,
  // not a pile-up behind the dead fill.
  EXPECT_EQ(map.attach("dn", "blk", 0, 4096, "c"), nullptr);
  CoalesceMap::FillPtr retry = map.begin("dn", "blk", 0, 4096, "c");
  EXPECT_NE(retry, lead);
  map.complete(retry, Buffer(), Status::Ok(), 0);
}

// ---- full-stack overlapping readers ----

constexpr std::uint64_t kFileBytes = 12 * 1024 * 1024;
constexpr std::uint64_t kSeed = 404;
constexpr std::size_t kReaders = 4;

// A worker pool wide enough for streams to overlap in time: with the
// default single worker the daemon serves strictly one stream at a time
// and nothing can ever be in flight to coalesce with.
DaemonConfig merged_stack() {
  DaemonConfig dc;
  dc.workers = 4;
  return dc;
}

// One concurrent reader: preads [offset, offset+len) of "/f" on its own
// stream and records the checksum. Free function: spawned coroutines must
// not be lambdas.
sim::Task window_reader(hdfs::DfsClient* client, std::uint64_t offset,
                        std::uint64_t len, std::uint64_t* checksum,
                        sim::Latch* done) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open("/f", in);
  Buffer data;
  co_await in->pread(offset, len, data);
  *checksum = data.size() == len ? data.checksum() : 0;
  co_await in->close();
  done->count_down();
}

sim::Task spawn_windows(Cluster* c,
                        const std::vector<std::pair<std::uint64_t, std::uint64_t>>& w,
                        std::vector<std::uint64_t>* sums) {
  sim::Latch done(c->sim(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    c->sim().spawn(window_reader(c->client("client"), w[i].first, w[i].second,
                                 &(*sums)[i], &done));
  }
  co_await done.wait();
}

void expect_windows_identical(
    Cluster& c, const std::vector<std::pair<std::uint64_t, std::uint64_t>>& w) {
  std::vector<std::uint64_t> sums(w.size(), 0);
  c.run_job(spawn_windows(&c, w, &sums));
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(sums[i], Buffer::deterministic(kSeed, w[i].first, w[i].second).checksum())
        << "reader " << i << " window [" << w[i].first << ", +" << w[i].second << ")";
  }
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> full_overlap() {
  return std::vector<std::pair<std::uint64_t, std::uint64_t>>(
      kReaders, {0, kFileBytes});
}

TEST(CoalesceStack, OverlappingLocalReadersByteIdenticalAndMerged) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread(testutil::validated(merged_stack()));
  c->drop_all_caches();
  expect_windows_identical(*c, full_overlap());
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  EXPECT_GT(s.coalesce_misses, 0u);
  // With four identical cold streams, somebody must have piggybacked —
  // either on an in-flight fill (coalesce hit) or on its result (cache).
  EXPECT_GT(s.coalesce_hits + s.cache_hits, 0u);
  EXPECT_EQ(s.coalesce_failed_fills, 0u);
}

TEST(CoalesceStack, OverlappingRemoteReadersByteIdenticalAndMerged) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  c->enable_vread(testutil::validated(merged_stack()));
  c->drop_all_caches();
  expect_windows_identical(*c, full_overlap());
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  // Remote payloads are not inserted into the requesting-side cache, so
  // concurrent identical windows MUST merge on the wire fill.
  EXPECT_GT(s.coalesce_hits, 0u);
  EXPECT_EQ(s.coalesce_failed_fills, 0u);
}

TEST(CoalesceStack, PartialOverlapWindowsByteIdentical) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread(testutil::validated(merged_stack()));
  c->drop_all_caches();
  // Shifted, partially-overlapping windows: reader i covers
  // [i * 2 MB, end). Overlap exists pairwise but windows are unequal.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> w;
  for (std::size_t i = 0; i < kReaders; ++i) {
    const std::uint64_t off = i * 2 * 1024 * 1024;
    w.push_back({off, kFileBytes - off});
  }
  expect_windows_identical(*c, w);
}

TEST(CoalesceStack, CacheHitRereadStaysByteIdentical) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread(testutil::validated(merged_stack()));
  c->drop_all_caches();
  expect_windows_identical(*c, full_overlap());  // cold: fills + merges
  expect_windows_identical(*c, full_overlap());  // warm: cache-hit path
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  EXPECT_GT(s.cache_hits, 0u);
}

TEST(CoalesceStack, DisabledStageStaysByteIdentical) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  DaemonConfig dc = merged_stack();
  dc.coalesce.enabled = false;
  c->enable_vread(testutil::validated(dc));
  c->drop_all_caches();
  expect_windows_identical(*c, full_overlap());
  EXPECT_EQ(c->daemon("host1")->coalescer(), nullptr);
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  EXPECT_EQ(s.coalesce_hits + s.coalesce_misses, 0u);
}

TEST(CoalesceChaos, FailedFillFansOutTypedStatusNoTornBytes) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  c->enable_vread(testutil::validated(merged_stack()));
  c->drop_all_caches();
  // Seeded probabilistic chaos on the peer link: some opens retry, some
  // in-flight fills die and fan their typed retryable status out to every
  // coalesced waiter, the library retries / degrades — and every byte
  // still verifies. Deterministic: fixed seed, single-threaded sim.
  fault::registry().seed(123);
  fault::registry().arm(fault::points::kPeerDown, {.probability = 0.3});
  expect_windows_identical(*c, full_overlap());
  if (!chaos_baseline()) {
    const DaemonStats s = c->daemon("host1")->stats_snapshot();
    EXPECT_GT(s.coalesce_failed_fills, 0u);
  }
}

// ---- fill-byte conservation (QoS fairness under merging) ----

struct TenantProbe {
  std::string tenant;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  bool ok = true;
};

// Issues random-access struct-API reads (readahead off, coalescing on)
// under this tenant's identity, verifying every byte.
sim::Task tenant_random_reader(hdfs::DfsClient* client, TenantProbe* p,
                               sim::Latch* done) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open("/f", in);
  for (const auto& [off, len] : p->windows) {
    hdfs::ReadRequest req;
    req.offset = off;
    req.len = len;
    req.tenant = sim::Name(p->tenant);
    req.readahead = false;  // every fill reads exactly its window
    hdfs::ReadResult res;
    co_await in->read(req, res);
    if (!res.status.ok() ||
        res.data.checksum() != Buffer::deterministic(kSeed, off, len).checksum()) {
      p->ok = false;
    }
  }
  co_await in->close();
  done->count_down();
}

sim::Task spawn_tenants(Cluster* c, std::vector<TenantProbe>* probes) {
  sim::Latch done(c->sim(), probes->size());
  for (TenantProbe& p : *probes) {
    c->sim().spawn(tenant_random_reader(c->client("client"), &p, &done));
  }
  co_await done.wait();
}

TEST(CoalesceProperty, MergedFillChargesSumToDiskBytes) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread(testutil::validated(merged_stack()));
  c->drop_all_caches();

  // Two tenants replay the SAME random-access schedule concurrently, so
  // most windows coalesce; a third tenant reads disjoint windows alone.
  sim::Rng rng(7);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> shared;
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t len = 16 * 1024 + rng.uniform(0, 3) * 16 * 1024;
    const std::uint64_t off =
        rng.uniform(0, (kFileBytes - len) / 4096) * 4096;
    shared.push_back({off, len});
  }
  std::vector<TenantProbe> probes(3);
  probes[0] = {"tenantA", shared};
  probes[1] = {"tenantB", shared};
  probes[2].tenant = "tenantC";
  for (int i = 0; i < 8; ++i) {
    probes[2].windows.push_back({static_cast<std::uint64_t>(i) * 512 * 1024, 32 * 1024});
  }

  const std::uint64_t disk0 = c->host("host1")->disk().bytes_read();
  c->run_job(spawn_tenants(c.get(), &probes));
  const std::uint64_t disk_delta = c->host("host1")->disk().bytes_read() - disk0;

  for (const TenantProbe& p : probes) {
    EXPECT_TRUE(p.ok) << p.tenant << " read mismatch";
  }
  VReadDaemon* d = c->daemon("host1");
  ASSERT_NE(d->coalescer(), nullptr);
  ASSERT_NE(d->qos(), nullptr);
  // Conservation: the per-tenant byte-shares of merged fills sum EXACTLY
  // to the fill bytes the stage recorded, which are EXACTLY the bytes the
  // device served (readahead disabled: every disk read is an attributed
  // synchronous leader fill).
  std::uint64_t charged = 0;
  for (const QosTenantStats& q : d->qos()->stats()) charged += q.fill_bytes;
  EXPECT_EQ(charged, d->coalescer()->fill_bytes());
  EXPECT_EQ(d->coalescer()->fill_bytes(), disk_delta);
  EXPECT_GT(disk_delta, 0u);
  // The shared schedule must actually have merged for the property to be
  // interesting.
  EXPECT_GT(d->coalescer()->hits(), 0u);
}

// ---- unified ReadRequest API ----

sim::Task api_equivalence_job(hdfs::DfsClient* client, bool* ok) {
  *ok = false;
  std::unique_ptr<hdfs::DfsInputStream> a;
  std::unique_ptr<hdfs::DfsInputStream> b;
  co_await client->open("/f", a);
  co_await client->open("/f", b);

  // Positional shim == struct API with an explicit offset.
  Buffer shim;
  co_await a->pread(1 * 1024 * 1024, 256 * 1024, shim);
  hdfs::ReadRequest req;
  req.offset = 1 * 1024 * 1024;
  req.len = 256 * 1024;
  hdfs::ReadResult res;
  co_await b->read(req, res);
  if (!res.status.ok() || res.data.checksum() != shim.checksum()) co_return;

  // kCurrentPos == sequential read advancing the cursor: two struct reads
  // must equal one positional read of the concatenated range.
  hdfs::ReadRequest seq;
  seq.len = 128 * 1024;  // offset defaults to kCurrentPos
  hdfs::ReadResult r1, r2;
  co_await b->read(seq, r1);
  co_await b->read(seq, r2);
  Buffer joined = std::move(r1.data);
  joined.append(r2.data);
  Buffer expect;
  co_await a->pread(0, 256 * 1024, expect);
  if (joined.checksum() != expect.checksum()) co_return;

  // A serial client-wide pread parallelism does not change the bytes.
  hdfs::ReadRequest wide;
  wide.offset = 0;
  wide.len = kFileBytes;
  client->set_pread_parallelism(1);  // serial legs
  hdfs::ReadResult serial;
  co_await b->read(wide, serial);
  if (!serial.status.ok() ||
      serial.data.checksum() != Buffer::deterministic(kSeed, 0, kFileBytes).checksum()) {
    co_return;
  }

  co_await a->close();
  co_await b->close();
  *ok = true;
}

TEST(ReadRequestApi, StructAndPositionalSurfacesAreEquivalent) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  c->enable_vread(testutil::validated(DaemonConfig{}));
  c->drop_all_caches();
  bool ok = false;
  c->run_job(api_equivalence_job(c->client("client"), &ok));
  EXPECT_TRUE(ok);
}

// ---- progressive remote fills (one owner push per window) ----

constexpr std::uint64_t kPushChunk = 256 * 1024;  // the daemon's stream chunk
constexpr std::uint64_t kPushWindow = 2 * 1024 * 1024;
// One chunk's serialization on the bed's 10 Gb/s link.
constexpr sim::SimTime kChunkWire = kPushChunk * 8 / 10;

struct TimedRead {
  sim::SimTime done = 0;
  Status status;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

// One libvread read, issued `delay` after the call, timed to its last byte.
sim::Task timed_read(Cluster* c, hdfs::ReadRequest rr, sim::SimTime delay, TimedRead* out,
                     sim::Latch* done) {
  if (delay > 0) co_await c->sim().delay(delay);
  hdfs::ReadResult res;
  co_await c->libvread("client")->read(rr, res);
  out->done = c->sim().now();
  out->status = res.status;
  out->bytes = res.data.size();
  out->checksum = res.data.checksum();
  done->count_down();
}

// Opens the first block of "/f" (on datanode2) once per request, then
// reads `lead` at once and `follow` 50us later, so `follow` finds the
// fill `lead` began in flight.
sim::Task lead_and_follow(Cluster* c, hdfs::ReadRequest lead, hdfs::ReadRequest follow,
                          TimedRead* a, TimedRead* b) {
  LibVread* lib = c->libvread("client");
  const sim::Name block(c->namenode().all_blocks("/f").front().name);
  Status st;
  co_await lib->open(block, sim::Name("datanode2"), lead.vfd, st);
  co_await lib->open(block, sim::Name("datanode2"), follow.vfd, st);
  sim::Latch done(c->sim(), 2);
  c->sim().spawn(timed_read(c, lead, 0, a, &done));
  c->sim().spawn(timed_read(c, follow, sim::us(50), b, &done));
  co_await done.wait();
  co_await lib->close(lead.vfd);
  co_await lib->close(follow.vfd);
}

hdfs::ReadRequest window(std::uint64_t offset, std::uint64_t len, std::string tenant = "") {
  hdfs::ReadRequest rr;
  rr.offset = offset;
  rr.len = len;
  rr.tenant = sim::Name(tenant);
  return rr;
}

void expect_bytes(const TimedRead& r, std::uint64_t offset, std::uint64_t len) {
  EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(r.bytes, len);
  EXPECT_EQ(r.checksum, Buffer::deterministic(kSeed, offset, len).checksum());
}

TEST(ProgressiveRemoteFill, FollowerTakesChunkZeroBeforeTheWindowLands) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  c->enable_vread(testutil::validated(merged_stack()));
  c->drop_all_caches();
  TimedRead a, b;
  c->run_job(lead_and_follow(c.get(), window(0, kPushWindow), window(0, kPushChunk), &a, &b));
  expect_bytes(a, 0, kPushWindow);
  expect_bytes(b, 0, kPushChunk);
  EXPECT_EQ(c->daemon("host1")->stats_snapshot().coalesce_hits, 1u);
  // The follower's chunk is served as it lands, not when the leader's
  // eighth chunk does: the leader still had six chunks on the wire.
  EXPECT_LT(b.done + 6 * kChunkWire, a.done) << "follower " << b.done << " leader " << a.done;
}

TEST(ProgressiveRemoteFill, MultiChunkFollowerCountsOnceInTheTenantSplit) {
  RegistryGuard guard;
  auto c = testutil::remote_bed(kFileBytes, kSeed);
  c->enable_vread(testutil::validated(merged_stack()));
  c->drop_all_caches();
  TimedRead a, b;
  c->run_job(lead_and_follow(c.get(), window(0, kPushWindow, "lead"),
                             window(0, kPushWindow / 2, "follow"), &a, &b));
  expect_bytes(a, 0, kPushWindow);
  expect_bytes(b, 0, kPushWindow / 2);
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  EXPECT_EQ(s.coalesce_hits, 1u);
  EXPECT_EQ(s.coalesce_fill_bytes, kPushWindow);
  // Four chunks taken from one fill, one registration: two tenants split
  // the window evenly, and the shares sum to the bytes the owner pushed.
  std::uint64_t lead = 0, follow = 0;
  for (const QosTenantStats& t : s.tenants) {
    if (t.tenant == "lead") lead = t.fill_bytes;
    if (t.tenant == "follow") follow = t.fill_bytes;
  }
  EXPECT_EQ(lead, kPushWindow / 2);
  EXPECT_EQ(follow, kPushWindow / 2);
}

sim::Task raise_flag(Cluster* c, sim::SimTime at, std::shared_ptr<bool> flag) {
  co_await c->sim().delay(at);
  *flag = true;
}

// Reads the whole first block as a hedge leg whose cancel flag rises 2 ms
// into the read, mid-window.
sim::Task hedge_leg(Cluster* c, bool coalesce, TimedRead* out) {
  LibVread* lib = c->libvread("client");
  hdfs::ReadRequest rr = window(0, 4 * 1024 * 1024);
  Status st;
  co_await lib->open(sim::Name(c->namenode().all_blocks("/f").front().name),
                     sim::Name("datanode2"), rr.vfd, st);
  auto flag = std::make_shared<bool>(false);
  rr.cancel = flag;
  rr.hedge = true;
  rr.coalesce = coalesce;
  c->sim().spawn(raise_flag(c, sim::ms(2), flag));
  sim::Latch done(c->sim(), 1);
  c->sim().spawn(timed_read(c, rr, 0, out, &done));
  co_await done.wait();
  co_await lib->close(rr.vfd);
}

TEST(ProgressiveRemoteFill, FillLeadingHedgeLegIsNeverCancelledMidWindow) {
  for (const bool coalesce : {true, false}) {
    SCOPED_TRACE(coalesce ? "leads a fill" : "coalescing off");
    RegistryGuard guard;
    auto c = testutil::remote_bed(kFileBytes, kSeed);
    c->enable_vread(testutil::validated(merged_stack()));
    c->drop_all_caches();
    TimedRead r;
    c->run_job(hedge_leg(c.get(), coalesce, &r));
    const DaemonStats s = c->daemon("host1")->stats_snapshot();
    EXPECT_EQ(s.hedged_reads, 1u);
    if (coalesce) {
      // Its bytes complete the fill a waiter could be sleeping on.
      expect_bytes(r, 0, 4 * 1024 * 1024);
      EXPECT_EQ(s.hedge_cancelled, 0u);
    } else {
      // The owner checks the flag inside its push and sends the marker.
      EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status.to_string();
      EXPECT_EQ(s.hedge_cancelled, 1u);
    }
  }
}

// ---- batched disk submission ----

TEST(DiskBatching, WindowMergesConcurrentFillsIntoOneSubmission) {
  RegistryGuard guard;
  auto c = testutil::local_bed(kFileBytes, kSeed);
  DaemonConfig dc;
  dc.workers = 4;
  dc.coalesce.batch_window = sim::us(50);
  c->enable_vread(testutil::validated(dc));
  c->drop_all_caches();
  // Disjoint windows: nothing coalesces at the fill level, so concurrent
  // leaders hit the disk together and the submission window batches them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> w;
  for (std::size_t i = 0; i < kReaders; ++i) {
    w.push_back({i * 3 * 1024 * 1024, 2 * 1024 * 1024});
  }
  expect_windows_identical(*c, w);
  const DaemonStats s = c->daemon("host1")->stats_snapshot();
  EXPECT_GT(s.disk_batches, 0u);
  const metrics::Histogram& h = c->daemon("host1")->coalescer()->batch_requests();
  EXPECT_GT(h.count(), 0u);
  // At least one sealed batch carried more than one fill read.
  EXPECT_GT(h.max(), 1u);
}

}  // namespace
}  // namespace vread::core
