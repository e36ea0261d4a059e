// Tracing subsystem coverage: zero-overhead-when-disabled (no spans, and
// bit-identical simulation results with tracing on vs. off), span-tree
// invariants over a real end-to-end run (single rooted tree per read,
// scheduler spans exclusive per thread), the paper's copy arithmetic
// measured from spans (5 copies vanilla vs. 2 vRead, Fig. 2), retry /
// fallback event markers under an injected fault schedule, aggregator
// consistency, and a golden-file check of the Chrome trace_event exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "core/libvread.h"
#include "core/vread_daemon.h"
#include "fault/fault.h"
#include "hdfs/dfs_client.h"
#include "mem/buffer.h"
#include "trace/aggregate.h"
#include "trace/chrome_export.h"
#include "trace/tracer.h"
#include "testutil.h"

namespace vread::trace {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;
using mem::Buffer;

// Every test starts and ends with a clean, disabled global tracer (and a
// clean fault registry: some suites load schedules).
struct TracerGuard {
  TracerGuard() {
    tracer().disable();
    tracer().clear();
    fault::registry().reset();
  }
  ~TracerGuard() {
    tracer().disable();
    tracer().clear();
    fault::registry().reset();
  }
};

ClusterConfig small_blocks() {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  return cfg;
}

struct Bed {
  Cluster cluster;
  explicit Bed(ClusterConfig cfg = small_blocks()) : cluster(cfg) {
    cluster.add_host("host1");
    cluster.add_host("host2");
    cluster.add_vm("host1", "client");
    cluster.create_namenode("client");
    cluster.add_datanode("host1", "datanode1");
    cluster.add_datanode("host2", "datanode2");
    cluster.add_client("client");
  }
};

struct RunResult {
  std::uint64_t checksum = 0;
  std::uint64_t bytes = 0;
  sim::SimTime elapsed = 0;
  std::uint64_t events = 0;
};

// One cold co-located (or remote) read, optionally vRead, optionally traced.
RunResult run_workload(bool vread, bool traced, bool remote = false,
                       std::uint64_t size = 8 * 1024 * 1024) {
  Bed bed;
  bed.cluster.preload_file("/data", size, 77,
                           {{remote ? "datanode2" : "datanode1"}});
  if (vread) bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  if (traced) tracer().enable(bed.cluster.sim());
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  tracer().disable();
  return RunResult{r.checksum, r.bytes, bed.cluster.sim().now(),
                   bed.cluster.sim().events_dispatched()};
}

// ---------------------------------------------------------------- disabled

TEST(TraceDisabled, RecordsNothingAndCostsNothing) {
  TracerGuard g;
  RunResult r = run_workload(/*vread=*/true, /*traced=*/false);
  EXPECT_EQ(r.checksum, Buffer::deterministic(77, 0, 8 * 1024 * 1024).checksum());
  // The "zero allocation" counter: a disabled tracer is never touched.
  EXPECT_EQ(tracer().spans_recorded(), 0u);
  EXPECT_EQ(tracer().reads_started(), 0u);
}

TEST(TraceDisabled, EnablingTracingDoesNotChangeTheSimulation) {
  TracerGuard g;
  for (bool vread : {false, true}) {
    RunResult off = run_workload(vread, /*traced=*/false);
    tracer().clear();
    RunResult on = run_workload(vread, /*traced=*/true);
    EXPECT_GT(tracer().spans_recorded(), 0u);
    // Bit-identical results: tracing only appends spans, it never charges
    // cycles, never co_awaits and never branches simulation logic.
    EXPECT_EQ(off.checksum, on.checksum) << "vread=" << vread;
    EXPECT_EQ(off.bytes, on.bytes) << "vread=" << vread;
    EXPECT_EQ(off.elapsed, on.elapsed) << "vread=" << vread;
    EXPECT_EQ(off.events, on.events) << "vread=" << vread;
    tracer().clear();
  }
}

// ---------------------------------------------------------- tree invariants

TEST(TraceTree, EveryReadHasExactlyOneRootAndContainedSpans) {
  TracerGuard g;
  run_workload(/*vread=*/true, /*traced=*/true);
  const std::vector<Span>& spans = tracer().spans();
  ASSERT_GT(spans.size(), 0u);
  ASSERT_GT(tracer().reads_started(), 0u);

  std::map<std::uint32_t, const Span*> roots;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kRead) continue;
    EXPECT_EQ(s.parent, 0u) << "root spans have no parent";
    EXPECT_TRUE(roots.emplace(s.read, &s).second)
        << "read " << s.read << " has two roots";
  }
  EXPECT_EQ(roots.size(), tracer().reads_started());

  for (const Span& s : spans) {
    EXPECT_LE(s.begin, s.end);
    if (s.kind == SpanKind::kRead || s.read == 0) continue;
    // Every traced non-root span belongs to a known read and starts after
    // its root opened. Asynchronous work attributed to the read — host
    // readahead disk reads and the CPU bursts they trigger — may finish
    // after the read returned, so end containment only holds for the
    // synchronous span kinds.
    auto it = roots.find(s.read);
    ASSERT_NE(it, roots.end()) << "span " << s.name << " has unknown read";
    EXPECT_GE(s.begin, it->second->begin) << s.name;
    if (s.kind != SpanKind::kDisk && s.kind != SpanKind::kCompute &&
        s.kind != SpanKind::kSyncWait) {
      EXPECT_LE(s.end, it->second->end) << s.name;
    }
  }
}

TEST(TraceTree, SchedulerSpansAreExclusivePerThread) {
  TracerGuard g;
  run_workload(/*vread=*/true, /*traced=*/true);
  // The scheduler emits one kSyncWait + kCompute pair per finished burst,
  // and a real thread runs one burst at a time — so on any real tid these
  // spans must not overlap (synthetic tracks may overlap freely).
  std::map<int, std::vector<std::pair<sim::SimTime, sim::SimTime>>> by_tid;
  for (const Span& s : tracer().spans()) {
    if (s.kind != SpanKind::kCompute && s.kind != SpanKind::kSyncWait) continue;
    if (tracer().is_track(s.tid)) continue;
    if (s.begin == s.end) continue;
    by_tid[s.tid].emplace_back(s.begin, s.end);
  }
  ASSERT_FALSE(by_tid.empty());
  for (auto& [tid, iv] : by_tid) {
    std::sort(iv.begin(), iv.end());
    for (std::size_t i = 1; i < iv.size(); ++i) {
      EXPECT_LE(iv[i - 1].second, iv[i].first)
          << "overlapping scheduler spans on tid " << tid;
    }
  }
}

// ------------------------------------------------------------ copy counts

TEST(TraceCopies, VanillaMovesEveryByteFiveTimes) {
  TracerGuard g;
  run_workload(/*vread=*/false, /*traced=*/true);
  const RunSummary s = aggregate(tracer());
  ASSERT_GT(s.total.bytes, 0u);
  // Fig. 2's vanilla path: virtio-blk, skb->tx-ring, vhost-pull,
  // vhost->rx-ring, skb->app (the datanode's sendfile skips app->skb).
  EXPECT_NEAR(s.total.copies(), 5.0, 0.35);
  EXPECT_TRUE(s.total.copy_by_site.count("copy virtio-blk"));
  EXPECT_TRUE(s.total.copy_by_site.count("copy vhost-pull"));
  EXPECT_TRUE(s.total.copy_by_site.count("copy skb->app"));
}

TEST(TraceCopies, VReadMovesEveryByteTwice) {
  TracerGuard g;
  run_workload(/*vread=*/true, /*traced=*/true);
  const RunSummary s = aggregate(tracer());
  ASSERT_GT(s.total.bytes, 0u);
  // The paper's two standing copies: daemon buffer -> shm ring -> app.
  EXPECT_NEAR(s.total.copies(), 2.0, 0.1);
  EXPECT_TRUE(s.total.copy_by_site.count("copy daemon->ring"));
  EXPECT_TRUE(s.total.copy_by_site.count("copy ring->app"));
  // No virtual-network copies at all on the shortcut path.
  EXPECT_FALSE(s.total.copy_by_site.count("copy vhost-pull"));
  EXPECT_FALSE(s.total.copy_by_site.count("copy skb->app"));
}

// `path` by value: spawned coroutines outlive the caller's temporaries.
sim::Task pread_task(hdfs::DfsClient* client, std::string path, std::uint64_t offset,
                     std::uint64_t len, std::uint64_t* checksum) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  Buffer data;
  co_await in->pread(offset, len, data);
  *checksum = data.checksum();
  co_await in->close();
}

TEST(TraceCopies, PeerFetchOverTcpRecordsBothCopySpans) {
  TracerGuard g;
  // The file lives on datanode1 only and the peer tier runs over TCP.
  // client2's read leaves the first chunk cached (and published) on a
  // copyset holder; client3's read of the same chunk is then a holder
  // fetch, traced on its own.
  constexpr std::uint64_t kChunk = 256 * 1024;
  auto c = testutil::racked_bed(3, 3, 0, 0);
  c->preload_file("/data", 8 * 1024 * 1024, 77, {{"datanode1"}});
  core::DaemonConfig dc;
  dc.transport = core::Transport::kTcp;
  dc.workers = 4;
  dc.peer_cache.enabled = true;
  c->enable_vread(dc);
  c->drop_all_caches();
  std::uint64_t warm = 0, sum = 0;
  c->run_job(pread_task(c->client("client2"), "/data", 0, kChunk, &warm));
  tracer().enable(c->sim());
  c->run_job(pread_task(c->client("client3"), "/data", 0, kChunk, &sum));
  tracer().disable();
  EXPECT_EQ(sum, Buffer::deterministic(77, 0, kChunk).checksum());
  ASSERT_EQ(c->daemon("host3")->stats_snapshot().peer_fetches, 1u);
  // The holder's send copy and the requester's receive copy are real data
  // copies on the vread-net path, one span each carrying the chunk.
  std::map<std::string, std::vector<std::uint64_t>> net_copies;
  for (const Span& s : tracer().spans()) {
    const std::string_view name(s.name);
    if (s.kind == SpanKind::kCopy && name.rfind("copy vread-net-", 0) == 0) {
      net_copies[std::string(name)].push_back(s.bytes);
    }
  }
  EXPECT_EQ(net_copies["copy vread-net-tx"], std::vector<std::uint64_t>{kChunk});
  EXPECT_EQ(net_copies["copy vread-net-rx"], std::vector<std::uint64_t>{kChunk});
}

// -------------------------------------------------------- fault markers

TEST(TraceFaults, RetryAndFallbackSpansAppearUnderFaultSchedule) {
  TracerGuard g;
  // Lost shm requests force libvread retries; a downed RDMA link forces
  // rdma->tcp failovers on the remote leg.
  fault::registry().load_schedule(
      "virt.shm.timeout:every=7,max=3;core.daemon.rdma_down:every=2");
  run_workload(/*vread=*/true, /*traced=*/true, /*remote=*/true);
  bool saw_retry = false, saw_failover = false;
  for (const Span& s : tracer().spans()) {
    if (s.kind == SpanKind::kRetry) saw_retry = true;
    if (s.kind == SpanKind::kFallback &&
        std::string_view(s.name) == "rdma->tcp") {
      saw_failover = true;
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_failover);
  const RunSummary s = aggregate(tracer());
  EXPECT_GT(s.total.retries + s.total.fallbacks, 0);
}

TEST(TraceFaults, SocketFallbackIsMarked) {
  TracerGuard g;
  // Peer permanently down: remote opens exhaust their retries and the
  // client degrades to the vanilla socket path — visible as a
  // vread->socket fallback instant, with the read still completing.
  fault::registry().load_schedule("core.daemon.peer_down:every=1");
  RunResult r = run_workload(/*vread=*/true, /*traced=*/true, /*remote=*/true);
  EXPECT_EQ(r.checksum, Buffer::deterministic(77, 0, 8 * 1024 * 1024).checksum());
  bool saw = false;
  for (const Span& s : tracer().spans()) {
    if (s.kind == SpanKind::kFallback &&
        std::string_view(s.name) == "vread->socket") {
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

// ----------------------------------------------------------- aggregator

TEST(TraceAggregate, TotalsAreTheSumOfReads) {
  TracerGuard g;
  run_workload(/*vread=*/true, /*traced=*/true);
  const RunSummary s = aggregate(tracer());
  ASSERT_GT(s.reads.size(), 0u);
  std::uint64_t bytes = 0, copy = 0;
  sim::SimTime wait = 0, elapsed = 0;
  for (const ReadBreakdown& r : s.reads) {
    EXPECT_GT(r.read, 0u);
    EXPECT_GE(r.end, r.begin);
    bytes += r.bytes;
    copy += r.copy_bytes;
    wait += r.sync_wait;
    elapsed += r.elapsed();
  }
  EXPECT_EQ(s.total.bytes, bytes);
  EXPECT_EQ(s.total.copy_bytes, copy);
  EXPECT_EQ(s.total.sync_wait, wait);
  EXPECT_EQ(s.total.elapsed(), elapsed);
  // Table printers run without tripping assertions on real data.
  std::ostringstream os;
  print_read_table(os, s);
  print_copy_sites(os, s);
  EXPECT_FALSE(os.str().empty());
}

// ---------------------------------------------------------------- export

TEST(TraceExport, GoldenChromeTrace) {
  TracerGuard g;
  // Synthetic, fully hand-controlled tracer state: two threads in two
  // groups, one track, one read with a copy span, a background wait and a
  // retry instant.
  sim::Simulation sim;
  metrics::CycleAccounting acct;
  const metrics::ThreadId app = acct.register_thread("app", "vm1");
  const metrics::ThreadId io = acct.register_thread("io", "hostA");
  Tracer& tr = tracer();
  tr.enable(sim);
  const int wire = tr.track("lan-wire", "lan");
  {
    Scope read = Scope::read("read1", static_cast<int>(app));
    read.set_bytes(4096);
    const Ctx ctx = read.ctx();
    tr.record(ctx, SpanKind::kCopy, "copy ring->app", static_cast<int>(app), 1000, 3500,
              4096);
    tr.record({}, SpanKind::kSyncWait, "cpu-queue", static_cast<int>(io), 0, 250);
    tr.record(ctx, SpanKind::kTransport, "rdma-wire", wire, 2000, 2600, 4096);
    tr.instant(ctx, SpanKind::kRetry, "libvread-retry", static_cast<int>(app));
  }  // closing the root scope stamps its end and bytes
  tr.disable();

  std::ostringstream os;
  write_chrome_trace(os, tr, acct);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"vm1\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"hostA\"}},\n"
      "{\"ph\":\"M\",\"pid\":3,\"name\":\"process_name\",\"args\":{\"name\":\"lan\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"app\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"io\"}},\n"
      "{\"ph\":\"M\",\"pid\":3,\"tid\":1000000,\"name\":\"thread_name\",\"args\":{\"name\":\"lan-wire\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":0.000,\"name\":\"read1\","
      "\"cat\":\"read\",\"args\":{\"read\":1,\"bytes\":4096}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.000,\"dur\":2.500,\"name\":\"copy ring->app\","
      "\"cat\":\"copy\",\"args\":{\"read\":1,\"bytes\":4096}},\n"
      "{\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":0.000,\"dur\":0.250,\"name\":\"cpu-queue\","
      "\"cat\":\"sync-wait\",\"args\":{\"read\":0,\"bytes\":0}},\n"
      "{\"ph\":\"X\",\"pid\":3,\"tid\":1000000,\"ts\":2.000,\"dur\":0.600,\"name\":\"rdma-wire\","
      "\"cat\":\"transport\",\"args\":{\"read\":1,\"bytes\":4096}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"s\":\"t\",\"name\":\"libvread-retry\","
      "\"cat\":\"retry\",\"args\":{\"read\":1,\"bytes\":0}}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(TraceExport, RealRunProducesWellFormedEvents) {
  TracerGuard g;
  Bed bed;
  bed.cluster.preload_file("/data", 8 * 1024 * 1024, 77, {{"datanode1"}});
  bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  tracer().enable(bed.cluster.sim());
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  tracer().disable();

  std::ostringstream os;
  write_chrome_trace(os, tracer(), bed.cluster.acct());
  const std::string out = os.str();
  // One event line per span (plus metadata); braces balance; the file is
  // the documented envelope.
  EXPECT_EQ(out.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
  std::size_t events = 0;
  for (std::size_t p = 0; (p = out.find("{\"ph\":\"", p)) != std::string::npos; ++p)
    ++events;
  EXPECT_GT(events, tracer().spans_recorded());  // spans + metadata records
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
}

// ------------------------------------------------------------------ scopes

// Opens one span of each shape under `ctx`, then throws 100 ns later.
sim::Task throw_inside_scopes(sim::Simulation* sim, Ctx ctx) {
  const Scope stage = Scope::open(ctx, SpanKind::kStage, "stage", 1);
  const Scope copy = Scope::after(stage.ctx(), SpanKind::kCopy, "copy", 1, 64);
  co_await sim->delay(100);
  throw std::runtime_error("boom");
}

sim::Task catch_and_go_on(sim::Simulation* sim, bool* caught) {
  const Scope root = Scope::read("read1", 1);
  try {
    co_await throw_inside_scopes(sim, root.ctx());
  } catch (const std::runtime_error&) {
    *caught = true;
  }
  co_await sim->delay(50);
}

TEST(TraceScope, ScopeOpenWhenItsCoroutineThrowsClosesExactlyOnce) {
  TracerGuard g;
  sim::Simulation sim;
  tracer().enable(sim);
  bool caught = false;
  sim.spawn(catch_and_go_on(&sim, &caught));
  sim.run();
  tracer().disable();
  ASSERT_TRUE(caught);
  // Both scopes closed at the throw, once each: the open span is stamped
  // then (not when the caller went on), the deferred one pushed exactly once.
  const std::vector<Span>& spans = tracer().spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].kind, SpanKind::kRead);
  EXPECT_EQ(spans[0].end, 150);
  EXPECT_EQ(std::string_view(spans[1].name), "stage");
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_EQ(spans[1].begin, 0);
  EXPECT_EQ(spans[1].end, 100);
  EXPECT_EQ(std::string_view(spans[2].name), "copy");
  EXPECT_EQ(spans[2].parent, 2u);
  EXPECT_EQ(spans[2].begin, 0);
  EXPECT_EQ(spans[2].end, 100);
  EXPECT_EQ(spans[2].bytes, 64u);
}

TEST(TraceScope, TeardownMidReadRecordsNothing) {
  TracerGuard g;
  std::vector<Span> before;
  DfsIoResult r;
  {
    auto c = testutil::remote_bed(8 * 1024 * 1024, 91);
    c->enable_vread(core::Transport::kTcp);
    c->drop_all_caches();
    tracer().enable(c->sim());
    c->sim().spawn(TestDfsIo::read(*c, "client", "/f", 1 << 20, r));
    c->sim().run_until(c->sim().now() + sim::ms(5));
    ASSERT_EQ(r.bytes, 0u);  // still mid-job
    before = tracer().spans();
    // Destroying the cluster with tracing on destroys every suspended frame
    // and the scopes open in it (the sanitizer presets check that they
    // touch only live objects).
  }
  tracer().disable();
  const auto open = [](const Span& s) { return s.kind == SpanKind::kRead && s.end == s.begin; };
  ASSERT_TRUE(std::any_of(before.begin(), before.end(), open));
  // A scope closed by teardown records nothing: no span is pushed and no
  // open span is stamped.
  const std::vector<Span>& after = tracer().spans();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].end, before[i].end) << after[i].name;
    EXPECT_EQ(after[i].bytes, before[i].bytes) << after[i].name;
  }
}

// ---------------------------------------------------------------- digests
//
// Exactness guard for the instrumentation itself. Each case traces one path
// end to end and pins a hash of every recorded span (read, parent, kind,
// name, tid, begin, end and bytes, in push order) plus the track table
// (names and groups, in registration order). Moving one span's timestamp,
// parent, thread or byte count, or recording spans in another order, moves
// the hash. A refactor of the trace hooks must keep these constants; a
// deliberate model change re-captures them (the failure prints the values).

struct TracePin {
  std::uint64_t digest = 0;
  std::size_t spans = 0;
  std::size_t tracks = 0;
};

std::ostream& operator<<(std::ostream& os, const TracePin& p) {
  return os << "{" << p.digest << "u, " << p.spans << "u, " << p.tracks << "u}";
}

TracePin pin_trace() {
  const Tracer& tr = tracer();
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) h = (h ^ (v & 0xff)) * 1099511628211ull;
  };
  const auto mix_str = [&mix](std::string_view s) {
    mix(s.size());
    for (char ch : s) mix(static_cast<unsigned char>(ch));
  };
  for (const Span& s : tr.spans()) {
    mix(s.read);
    mix(s.parent);
    mix(static_cast<std::uint64_t>(s.kind));
    mix_str(s.name);
    mix(static_cast<std::uint64_t>(s.tid));
    mix(static_cast<std::uint64_t>(s.begin));
    mix(static_cast<std::uint64_t>(s.end));
    mix(s.bytes);
  }
  for (std::size_t i = 0; i < tr.track_count(); ++i) {
    const int tid = Tracer::kTrackBase + static_cast<int>(i);
    mix_str(tr.track_name(tid));
    mix_str(tr.track_group(tid));
  }
  return TracePin{h, tr.spans().size(), tr.track_count()};
}

void expect_trace(const TracePin& want) {
  const TracePin got = pin_trace();
  EXPECT_EQ(got.digest, want.digest) << "got " << got;
  EXPECT_EQ(got.spans, want.spans) << "got " << got;
  EXPECT_EQ(got.tracks, want.tracks) << "got " << got;
}

constexpr std::uint64_t kDigestSeed = 91;
constexpr std::uint64_t kDigestFile = 8 * 1024 * 1024;  // 2 blocks of 4 MB

// One sequential 1 MB-request DFSIO read of "/f" by `client_vm`, traced from
// a cold start.
void traced_dfsio(Cluster& c, const std::string& client_vm = "client") {
  c.drop_all_caches();
  tracer().enable(c.sim());
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, client_vm, "/f", 1 << 20, r));
  tracer().disable();
  EXPECT_EQ(r.checksum, Buffer::deterministic(kDigestSeed, 0, kDigestFile).checksum());
}

// One positional read of `len` bytes at `offset` with the client's block
// fan-out set to `fanout`; returns the payload checksum.
std::uint64_t traced_pread(Cluster& c, const std::string& client_vm, std::uint64_t offset,
                           std::uint64_t len, std::size_t fanout = 1) {
  c.client(client_vm)->set_pread_parallelism(fanout);
  std::uint64_t sum = 0;
  tracer().enable(c.sim());
  c.run_job(pread_task(c.client(client_vm), "/f", offset, len, &sum));
  tracer().disable();
  return sum;
}

core::DaemonConfig peer_tier_config(core::Transport transport) {
  core::DaemonConfig dc;
  dc.transport = transport;
  dc.workers = 4;
  dc.peer_cache.enabled = true;
  return dc;
}

TEST(TraceDigest, VanillaColocated) {
  TracerGuard g;
  auto c = testutil::local_bed(kDigestFile, kDigestSeed);
  traced_dfsio(*c);
  expect_trace(TracePin{9245329075240692730u, 2078u, 2u});
}

TEST(TraceDigest, VanillaRemote) {
  TracerGuard g;
  auto c = testutil::remote_bed(kDigestFile, kDigestSeed);
  traced_dfsio(*c);
  expect_trace(TracePin{149713558440057878u, 2221u, 3u});
}

TEST(TraceDigest, VReadColocated) {
  TracerGuard g;
  auto c = testutil::local_bed(kDigestFile, kDigestSeed);
  c->enable_vread();
  traced_dfsio(*c);
  expect_trace(TracePin{6195109711865717457u, 431u, 1u});
}

TEST(TraceDigest, VReadRemoteRdma) {
  TracerGuard g;
  auto c = testutil::remote_bed(kDigestFile, kDigestSeed);
  c->enable_vread(core::Transport::kRdma);
  traced_dfsio(*c);
  EXPECT_GT(c->daemon("host1")->remote_reads(), 0u);
  expect_trace(TracePin{5832951964171761031u, 463u, 2u});
}

TEST(TraceDigest, VReadRemoteTcp) {
  TracerGuard g;
  auto c = testutil::remote_bed(kDigestFile, kDigestSeed);
  c->enable_vread(core::Transport::kTcp);
  traced_dfsio(*c);
  EXPECT_GT(c->daemon("host1")->remote_reads(), 0u);
  expect_trace(TracePin{2005123086325963579u, 593u, 2u});
}

// client2's chunk comes from the owner daemon, client3's identical chunk
// from a copyset holder's cache; both fetches are traced.
TEST(TraceDigest, PeerCacheFetchOverTcp) {
  TracerGuard g;
  constexpr std::uint64_t kChunk = 256 * 1024;
  auto c = testutil::racked_bed(3, 3, 0, 0);
  c->preload_file("/f", kDigestFile, kDigestSeed, {{"datanode1"}});
  c->enable_vread(peer_tier_config(core::Transport::kTcp));
  c->drop_all_caches();
  const std::uint64_t want = Buffer::deterministic(kDigestSeed, 0, kChunk).checksum();
  EXPECT_EQ(traced_pread(*c, "client2", 0, kChunk), want);
  EXPECT_EQ(traced_pread(*c, "client3", 0, kChunk), want);
  EXPECT_EQ(c->daemon("host3")->stats_snapshot().peer_fetches, 1u);
  expect_trace(TracePin{6572227447096593028u, 79u, 2u});
}

// Both legs of every hedged read run side by side against replicas whose
// devices stall for GC most of the time; the second leg wins some reads.
TEST(TraceDigest, HedgeSecondLegWins) {
  TracerGuard g;
  core::DaemonConfig dc = peer_tier_config(core::Transport::kRdma);
  dc.peer_cache.enabled = false;
  dc.cache_bytes = 0;  // every read reaches the device, where GC lives
  dc.disk.enabled = true;
  dc.disk.seed = 21;
  dc.disk.gc_period = sim::ms(10);
  dc.disk.gc_duration = sim::ms(8);
  auto c = testutil::racked_bed(3, 3, 0, 0);
  c->preload_file("/f", 3 * 4 * 1024 * 1024, kDigestSeed, {{"datanode2", "datanode3"}});
  c->enable_vread(testutil::validated(dc));
  hdfs::HedgeConfig hc;
  hc.enabled = true;
  hc.min_delay = sim::us(100);
  hc.max_delay = sim::us(200);
  hc.warmup = 1u << 30;
  c->client("client1")->set_hedge(hc);
  fault::registry().arm(fault::points::kHedgeBothSlow, {.every = 1});
  c->drop_all_caches();
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t off = i * (512 << 10);
    EXPECT_EQ(traced_pread(*c, "client1", off, 256 << 10, 4),
              Buffer::deterministic(kDigestSeed, off, 256 << 10).checksum());
  }
  EXPECT_GT(c->client("client1")->hedge_wins(), 0u);
  expect_trace(TracePin{11693150556004132923u, 289u, 4u});
}

// The owner's daemon never answers: remote opens exhaust their retries and
// every block falls back to the socket path.
TEST(TraceDigest, SocketFallbackUnderFault) {
  TracerGuard g;
  auto c = testutil::remote_bed(kDigestFile, kDigestSeed);
  c->enable_vread();
  fault::registry().load_schedule("core.daemon.peer_down:every=1");
  traced_dfsio(*c);
  EXPECT_GT(c->client("client")->vread_fallback_reads(), 0u);
  expect_trace(TracePin{3188412661866027106u, 2285u, 3u});
}

// A two-replica pipeline write across both hosts: its spans carry no read
// id, but the copies, wire hops and bursts are recorded all the same.
TEST(TraceDigest, PipelineWrite) {
  TracerGuard g;
  testutil::Bed bed;
  Cluster& c = bed.cluster;
  tracer().enable(c.sim());
  DfsIoResult r;
  c.run_job(TestDfsIo::write(c, "client", "/w", 6 * 1024 * 1024, 7,
                             Cluster::place_on({"datanode1", "datanode2"}), r));
  tracer().disable();
  EXPECT_EQ(r.bytes, 6u * 1024 * 1024);
  expect_trace(TracePin{16949952353762133140u, 3757u, 1u});
}

}  // namespace
}  // namespace vread::trace
