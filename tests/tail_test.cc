// Tail-latency engineering properties (DESIGN.md §16): the seeded SSD
// variability model (GC windows, write-interference stalls, channel
// queueing), the client-side hedged-read race (byte-identical to unhedged
// on every path, loser legs cancelled and un-charged, no leaked inflight
// accounting) and the deadline-aware EDF lane inside the QoS scheduler
// (reordering confined to each tenant's DRR share). Chaos cases use seeded
// probabilistic fault schedules — healthy and faulty operations interleave,
// which is the mix the cancellation protocol actually faces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/cluster.h"
#include "core/libvread.h"
#include "core/qos.h"
#include "core/vread_daemon.h"
#include "fault/fault.h"
#include "hdfs/dfs_client.h"
#include "hw/disk.h"
#include "mem/buffer.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "testutil.h"

namespace vread {
namespace {

using apps::Cluster;
using core::DaemonConfig;
using core::QosConfig;
using core::QosScheduler;
using core::VReadDaemon;
using hdfs::HedgeConfig;
using mem::Buffer;
using testutil::racked_bed;
using testutil::RegistryGuard;

// ---- hw::Disk variability model -----------------------------------------

// Issues `n` serialized reads of `bytes` each and records every completion
// time. Serialized issue makes the timeline a pure function of the disk's
// schedule() — exactly what the determinism properties compare.
sim::Task issue_reads(sim::Simulation* sim, hw::Disk* d, int n, std::uint64_t bytes,
                      std::vector<sim::SimTime>* completions) {
  for (int i = 0; i < n; ++i) {
    co_await d->read(bytes, {});
    completions->push_back(sim->now());
  }
}

// One concurrent read; records its completion into a fixed slot.
sim::Task one_read(sim::Simulation* sim, hw::Disk* d, std::uint64_t bytes,
                   std::vector<sim::SimTime>* out, std::size_t slot) {
  co_await d->read(bytes, {});
  (*out)[slot] = sim->now();
}

sim::Task write_then_read(hw::Disk* d) {
  co_await d->write(4096);
  co_await d->read(64 * 1024, {});
}

TEST(DiskVariability, DisabledModelIsBitIdenticalToBaseline) {
  sim::Simulation sim;
  hw::Disk plain(sim, {});
  hw::Disk configured(sim, {});
  hw::Disk::Variability v;
  v.enabled = false;  // everything else non-default: must all be inert
  v.seed = 99;
  v.gc_period = sim::ms(1);
  v.gc_duration = sim::us(900);
  v.channels = 8;
  configured.configure_variability(v);
  std::vector<sim::SimTime> a, b;
  sim.spawn(issue_reads(&sim, &plain, 32, 64 * 1024, &a));
  sim.spawn(issue_reads(&sim, &configured, 32, 64 * 1024, &b));
  sim.run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(configured.gc_stall_count(), 0u);
  EXPECT_EQ(configured.write_stall_count(), 0u);
}

TEST(DiskVariability, SeededScheduleIsDeterministic) {
  hw::Disk::Variability v;
  v.enabled = true;
  v.seed = 7;
  v.gc_period = sim::ms(1);
  v.gc_duration = sim::us(400);
  v.channels = 4;
  auto run = [&](std::uint64_t seed) {
    sim::Simulation sim;
    hw::Disk d(sim, {});
    hw::Disk::Variability vv = v;
    vv.seed = seed;
    d.configure_variability(vv);
    std::vector<sim::SimTime> t;
    sim.spawn(issue_reads(&sim, &d, 48, 256 * 1024, &t));
    sim.run();
    return t;
  };
  const std::vector<sim::SimTime> first = run(7);
  EXPECT_EQ(first, run(7));   // same seed: bit-identical timeline
  EXPECT_NE(first, run(8));   // different seed: different GC/channel draws
}

TEST(DiskVariability, GcWindowStallsReads) {
  sim::Simulation sim;
  hw::Disk d(sim, {});
  hw::Disk::Variability v;
  v.enabled = true;
  v.gc_duration = sim::us(500);
  v.gc_period = v.gc_duration + 1;  // a 1 ns idle span pins the window at 0
  v.write_stall = 0;
  d.configure_variability(v);
  std::vector<sim::SimTime> t;
  sim.spawn(issue_reads(&sim, &d, 1, 4096, &t));
  sim.run();
  // The read was issued at t=0, inside [0, 500us): held until the window
  // closes, then pays the normal access latency + transfer.
  ASSERT_EQ(t.size(), 1u);
  EXPECT_GE(t[0], sim::us(500) + hw::Disk::kReadLatency);
  EXPECT_GE(d.gc_stall_count(), 1u);
}

TEST(DiskVariability, WriteInterferenceStallsTrailingRead) {
  auto run = [](sim::SimTime stall) {
    sim::Simulation sim;
    hw::Disk d(sim, {});
    hw::Disk::Variability v;
    v.enabled = true;
    v.gc_duration = 0;  // isolate the write-stall term
    v.write_stall = stall;
    d.configure_variability(v);
    sim.spawn(write_then_read(&d));
    sim.run();
    return std::pair<sim::SimTime, std::uint64_t>{sim.now(), d.write_stall_count()};
  };
  const auto [with, stalled] = run(sim::us(400));
  const auto [without, none] = run(0);
  EXPECT_EQ(stalled, 1u);  // read right on the write's heels pays the flush
  EXPECT_EQ(none, 0u);
  EXPECT_EQ(with - without, sim::us(400));
}

TEST(DiskVariability, ChannelsDrainIndependently) {
  auto makespan = [](std::size_t channels) {
    sim::Simulation sim;
    hw::Disk d(sim, {});
    hw::Disk::Variability v;
    v.enabled = true;
    v.seed = 3;
    v.gc_duration = 0;
    v.write_stall = 0;
    v.channels = channels;
    d.configure_variability(v);
    std::vector<sim::SimTime> t(8, 0);
    for (std::size_t i = 0; i < t.size(); ++i) {
      sim.spawn(one_read(&sim, &d, 1024 * 1024, &t, i));
    }
    sim.run();
    return *std::max_element(t.begin(), t.end());
  };
  // Eight simultaneous submissions: four channels drain in parallel where
  // the single FIFO serializes all eight.
  EXPECT_LT(makespan(4), makespan(1));
}

TEST(DiskVariability, ValidateRejectsBadConfigs) {
  DaemonConfig good;
  good.disk.enabled = true;
  EXPECT_TRUE(good.Validate().ok());

  DaemonConfig dc = good;
  dc.disk.gc_duration = dc.disk.gc_period;  // window must fit in its period
  EXPECT_FALSE(dc.Validate().ok());

  dc = good;
  dc.disk.gc_period = 0;
  EXPECT_FALSE(dc.Validate().ok());

  dc = good;
  dc.disk.channels = 0;
  EXPECT_FALSE(dc.Validate().ok());

  dc = good;
  dc.disk.write_stall = -1;
  EXPECT_FALSE(dc.Validate().ok());

  // Disabled model: the same bad values are inert and accepted.
  dc = good;
  dc.disk.enabled = false;
  dc.disk.channels = 0;
  EXPECT_TRUE(dc.Validate().ok());
}

// ---- QoS EDF lane (scheduler level) -------------------------------------

virt::ShmRequest tagged_req(std::uint64_t tag, sim::SimTime deadline) {
  virt::ShmRequest req;
  req.op = static_cast<int>(core::VReadOp::kRead);
  req.len = 64 * 1024;
  req.offset = tag;  // identifies the request in dispatch order
  req.deadline = deadline;
  return req;
}

sim::Task drain_tags(QosScheduler* s, std::size_t n, std::vector<std::uint64_t>* tags) {
  for (std::size_t i = 0; i < n; ++i) {
    QosScheduler::Item item;
    co_await s->next(item);
    tags->push_back(item.req.offset);
  }
}

// Drains with a fixed service time per item (paid BEFORE each dispatch,
// like a busy worker), recording each deadline-bearing dispatch's lateness
// (now - deadline; <= 0 means on time).
sim::Task drain_paced(sim::Simulation* sim, QosScheduler* s, std::size_t n,
                      sim::SimTime per_item, std::vector<sim::SimTime>* lateness) {
  for (std::size_t i = 0; i < n; ++i) {
    co_await sim->delay(per_item);
    QosScheduler::Item item;
    co_await s->next(item);
    if (item.req.deadline > 0) lateness->push_back(sim->now() - item.req.deadline);
  }
}

TEST(EdfLane, OrdersByDeadlineWithinTenant) {
  sim::Simulation sim;
  QosConfig cfg;
  cfg.edf = true;
  QosScheduler s(sim, cfg, "edf-unit-order");
  EXPECT_TRUE(s.submit("t", {tagged_req(1, sim::us(400)), nullptr}));
  EXPECT_TRUE(s.submit("t", {tagged_req(2, sim::us(100)), nullptr}));
  EXPECT_TRUE(s.submit("t", {tagged_req(3, sim::us(300)), nullptr}));
  EXPECT_TRUE(s.submit("t", {tagged_req(4, sim::us(200)), nullptr}));
  std::vector<std::uint64_t> tags;
  sim.spawn(drain_tags(&s, 4, &tags));
  sim.run();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{2, 4, 3, 1}));
  EXPECT_GT(s.edf_reordered(), 0u);
}

TEST(EdfLane, DeadlineFreeRequestsKeepFifoBehindDeadlineBearing) {
  sim::Simulation sim;
  QosConfig cfg;
  cfg.edf = true;
  QosScheduler s(sim, cfg, "edf-unit-fifo-tail");
  EXPECT_TRUE(s.submit("t", {tagged_req(1, 0), nullptr}));
  EXPECT_TRUE(s.submit("t", {tagged_req(2, sim::us(500)), nullptr}));
  EXPECT_TRUE(s.submit("t", {tagged_req(3, 0), nullptr}));
  EXPECT_TRUE(s.submit("t", {tagged_req(4, sim::us(100)), nullptr}));
  std::vector<std::uint64_t> tags;
  sim.spawn(drain_tags(&s, 4, &tags));
  sim.run();
  // Deadline-bearing first (EDF), then the deadline-free pair in arrival
  // order: urgency never reorders the bulk scan against itself.
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{4, 2, 1, 3}));
}

TEST(EdfLane, DisabledLaneIsPlainFifo) {
  sim::Simulation sim;
  QosScheduler s(sim, QosConfig{}, "edf-unit-off");  // edf defaults to false
  EXPECT_TRUE(s.submit("t", {tagged_req(1, sim::us(400)), nullptr}));
  EXPECT_TRUE(s.submit("t", {tagged_req(2, sim::us(100)), nullptr}));
  EXPECT_TRUE(s.submit("t", {tagged_req(3, sim::us(300)), nullptr}));
  std::vector<std::uint64_t> tags;
  sim.spawn(drain_tags(&s, 3, &tags));
  sim.run();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(s.edf_reordered(), 0u);
  EXPECT_EQ(s.edf_dispatch_ontime(), 0u);
  EXPECT_EQ(s.edf_dispatch_late(), 0u);
}

TEST(EdfLane, CrossTenantDrrFairnessSurvivesEdf) {
  // EDF reorders WITHIN a tenant's queue only: the weighted byte shares
  // across tenants stay what DRR says even when every request carries a
  // deadline crafted to favor the light tenant.
  sim::Simulation sim;
  QosConfig cfg;
  cfg.edf = true;
  cfg.weights["heavy"] = 3.0;
  cfg.weights["light"] = 1.0;
  QosScheduler s(sim, cfg, "edf-unit-drr");
  for (int i = 0; i < 40; ++i) {
    // The light tenant's deadlines are all earlier than the heavy one's.
    EXPECT_TRUE(s.submit("heavy", {tagged_req(i, sim::ms(100) + sim::us(i)), nullptr}));
    EXPECT_TRUE(s.submit("light", {tagged_req(100 + i, sim::us(1 + i)), nullptr}));
  }
  // 32 dispatches = two whole DRR cycles at these sizes (64 KB requests,
  // 256 KB quantum: 12 heavy + 4 light per cycle).
  std::vector<std::uint64_t> tags;
  sim.spawn(drain_tags(&s, 32, &tags));
  sim.run();
  double heavy = 0, light = 0;
  for (std::uint64_t t : tags) (t < 100 ? heavy : light) += 1;
  EXPECT_GT(light, 0.0);
  EXPECT_NEAR(heavy / light, 3.0, 0.5);
}

TEST(EdfLane, DispatchVerdictCountersSplitOntimeAndLate) {
  sim::Simulation sim;
  QosConfig cfg;
  cfg.edf = true;
  QosScheduler s(sim, cfg, "edf-unit-verdict");
  EXPECT_TRUE(s.submit("t", {tagged_req(1, sim::us(1)), nullptr}));     // missed
  EXPECT_TRUE(s.submit("t", {tagged_req(2, sim::ms(10)), nullptr}));    // met
  std::vector<sim::SimTime> lateness;
  // First dispatch lands at t=50us: the 1us deadline (which EDF hands out
  // first) is already gone, the 10ms one follows comfortably on time.
  sim.spawn(drain_paced(&sim, &s, 2, sim::us(50), &lateness));
  sim.run();
  EXPECT_EQ(s.edf_dispatch_ontime() + s.edf_dispatch_late(), 2u);
  EXPECT_EQ(s.edf_dispatch_ontime(), 1u);
  EXPECT_EQ(s.edf_dispatch_late(), 1u);
}

TEST(EdfLane, MeetsMoreDeadlinesThanFifoAtEqualThroughput) {
  // Ten requests submitted in REVERSE deadline order, serviced one per
  // 100us. FIFO burns the early slots on the relaxed deadlines and misses
  // the urgent ones; EDF meets all ten. Same work, same pace — the lane
  // only changes who goes first.
  auto ontime = [](bool edf) {
    sim::Simulation sim;
    QosConfig cfg;
    cfg.edf = edf;
    QosScheduler s(sim, cfg, edf ? "edf-unit-meet-edf" : "edf-unit-meet-fifo");
    for (int i = 10; i >= 1; --i) {
      EXPECT_TRUE(s.submit("t", {tagged_req(i, sim::us(100) * i), nullptr}));
    }
    std::vector<sim::SimTime> lateness;
    sim.spawn(drain_paced(&sim, &s, 10, sim::us(100), &lateness));
    sim.run();
    int met = 0;
    for (sim::SimTime l : lateness) met += l <= 0 ? 1 : 0;
    return met;
  };
  const int edf_met = ontime(true);
  const int fifo_met = ontime(false);
  EXPECT_EQ(edf_met, 10);
  EXPECT_LT(fifo_met, edf_met);
}

TEST(QosScheduler, UnchargeBytesKeepsBothSidesAuditable) {
  sim::Simulation sim;
  QosScheduler s(sim, QosConfig{}, "qos-unit-uncharge");
  s.account_bytes("t", 1000);
  s.uncharge_bytes("t", 400);
  // Separate monotonic counters: the charge is never rewritten, effective
  // usage is the difference.
  EXPECT_EQ(s.bytes("t"), 1000u);
  EXPECT_EQ(s.uncharged("t"), 400u);
  bool found = false;
  for (const core::QosTenantStats& ts : s.stats()) {
    if (ts.tenant != "t") continue;
    found = true;
    EXPECT_EQ(ts.bytes, 1000u);
    EXPECT_EQ(ts.uncharged, 400u);
  }
  EXPECT_TRUE(found);
}

// ---- hedged reads (end to end) ------------------------------------------

constexpr std::uint64_t kFileBytes = 12 * 1024 * 1024;  // 3 blocks of 4 MB

// Hedge policy that always fires almost immediately: max_delay is used
// verbatim until `warmup` samples exist, and warmup is set unreachably
// high, so every read hedges after 200us.
HedgeConfig eager_hedge() {
  HedgeConfig hc;
  hc.enabled = true;
  hc.min_delay = sim::us(100);
  hc.max_delay = sim::us(200);
  hc.warmup = 1u << 30;
  return hc;
}

// `path` by value: spawned coroutines outlive the caller's temporaries.
sim::Task checksum_pread(hdfs::DfsClient* client, std::string path,
                         std::uint64_t offset, std::uint64_t len,
                         std::uint64_t* checksum, std::uint64_t* received) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  Buffer data;
  co_await in->pread(offset, len, data);
  *checksum = data.size() == len ? data.checksum() : 0;
  if (received != nullptr) *received += data.size();
  co_await in->close();
}

std::uint64_t read_checksum(Cluster& c, const std::string& client_vm,
                            std::uint64_t offset = 0, std::uint64_t len = kFileBytes,
                            std::uint64_t* received = nullptr) {
  std::uint64_t sum = 0;
  c.run_job(checksum_pread(c.client(client_vm), "/f", offset, len, &sum, received));
  return sum;
}

// Sequential read1 loop over the whole file (exercises the cursor path;
// hedged legs force their own positional reads underneath).
sim::Task checksum_sequential(hdfs::DfsClient* client, std::string path,
                              std::uint64_t* checksum) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  Buffer all;
  for (;;) {
    Buffer chunk;
    co_await in->read(1 * 1024 * 1024, chunk);
    if (chunk.size() == 0) break;
    all.append(chunk);
  }
  *checksum = all.checksum();
  co_await in->close();
}

// Positional reads with the readahead hint off — the conservation test
// needs every charged byte attributable to a leg's own delivery.
sim::Task pread_no_readahead(hdfs::DfsClient* client, std::string path,
                             std::uint64_t offset, std::uint64_t len,
                             std::uint64_t* checksum, std::uint64_t* received) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  hdfs::ReadRequest req;
  req.offset = offset;
  req.len = len;
  req.readahead = false;
  hdfs::ReadResult res;
  co_await in->read(req, res);
  *checksum = res.data.checksum();
  *received += res.data.size();
  co_await in->close();
}

// Every daemon idle: no inflight payload accounting, no queued shm slots.
void expect_no_inflight(Cluster& c, std::uint32_t hosts) {
  for (std::uint32_t i = 1; i <= hosts; ++i) {
    VReadDaemon* d = c.daemon("host" + std::to_string(i));
    ASSERT_NE(d, nullptr);
    const core::DaemonStats s = d->stats_snapshot();
    EXPECT_EQ(d->load_signal().inflight_bytes, 0u) << s.host;
    EXPECT_EQ(s.shm_inflight, 0u) << s.host;
    for (const core::QosTenantStats& t : s.tenants) {
      EXPECT_GE(t.bytes, t.uncharged) << s.host << "/" << t.tenant;
    }
  }
}

// Builds the standard hedging bed: `hosts` racked hosts, the file on the
// given datanodes, vRead enabled with `dc`. Blocks on >= 2 replicas is
// what makes reads hedgeable.
std::unique_ptr<Cluster> hedge_bed(std::uint32_t hosts,
                                   std::vector<std::string> replicas,
                                   DaemonConfig dc, std::uint64_t seed = 11) {
  auto c = racked_bed(hosts, hosts, 0, 0);
  c->preload_file("/f", kFileBytes, seed, {std::move(replicas)});
  c->enable_vread(testutil::validated(dc));
  return c;
}

TEST(HedgeRead, ByteIdenticalOnLocalShortcutPath) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  auto c = hedge_bed(3, {"datanode1", "datanode2", "datanode3"}, dc);
  // client1's primary is its co-located datanode1: the local shm shortcut.
  const std::uint64_t plain = read_checksum(*c, "client1");
  c->client("client1")->set_hedge(eager_hedge());
  const std::uint64_t hedged = read_checksum(*c, "client1");
  EXPECT_EQ(hedged, plain);
  EXPECT_GT(c->client("client1")->hedge_launched(), 0u);
  expect_no_inflight(*c, 3);
}

TEST(HedgeRead, ByteIdenticalOnTcpRemotePath) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.transport = VReadDaemon::Transport::kTcp;
  dc.workers = 4;
  // No replica on client1's host: both legs go daemon-to-daemon over TCP.
  auto c = hedge_bed(3, {"datanode2", "datanode3"}, dc);
  const std::uint64_t plain = read_checksum(*c, "client1");
  c->client("client1")->set_hedge(eager_hedge());
  const std::uint64_t hedged = read_checksum(*c, "client1");
  EXPECT_EQ(hedged, plain);
  EXPECT_GT(c->client("client1")->hedge_launched(), 0u);
  expect_no_inflight(*c, 3);
}

TEST(HedgeRead, ByteIdenticalOnRdmaRemotePath) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.transport = VReadDaemon::Transport::kRdma;
  dc.workers = 4;
  auto c = hedge_bed(3, {"datanode2", "datanode3"}, dc);
  const std::uint64_t plain = read_checksum(*c, "client1");
  c->client("client1")->set_hedge(eager_hedge());
  const std::uint64_t hedged = read_checksum(*c, "client1");
  EXPECT_EQ(hedged, plain);
  EXPECT_GT(c->client("client1")->hedge_launched(), 0u);
  expect_no_inflight(*c, 3);
}

TEST(HedgeRead, ByteIdenticalOnPeerCacheTier) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  dc.peer_cache.enabled = true;
  // Two racks of two; replicas live in rack 1 only, readers in rack 2.
  auto c = racked_bed(4, 2, 0, 0);
  c->preload_file("/f", kFileBytes, 11, {{"datanode1", "datanode2"}});
  c->enable_vread(testutil::validated(dc));
  // client3's read warms host3's cache and publishes it to the directory.
  const std::uint64_t plain = read_checksum(*c, "client3");
  // client4's hedged re-read finds the ranges on its rack-mate's daemon.
  c->client("client4")->set_hedge(eager_hedge());
  const std::uint64_t hedged = read_checksum(*c, "client4");
  EXPECT_EQ(hedged, plain);
  EXPECT_GT(c->client("client4")->hedge_launched(), 0u);
  std::uint64_t peer_fetches = 0;
  for (int i = 1; i <= 4; ++i) {
    peer_fetches += c->daemon("host" + std::to_string(i))->stats_snapshot().peer_fetches;
  }
  EXPECT_GT(peer_fetches, 0u);
  expect_no_inflight(*c, 4);
}

TEST(HedgeRead, SequentialAndPositionalAgree) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  auto c = hedge_bed(3, {"datanode2", "datanode3"}, dc);
  const std::uint64_t plain = read_checksum(*c, "client1");
  c->client("client1")->set_hedge(eager_hedge());
  std::uint64_t seq = 0;
  c->run_job(checksum_sequential(c->client("client1"), "/f", &seq));
  const std::uint64_t positional = read_checksum(*c, "client1");
  EXPECT_EQ(seq, plain);
  EXPECT_EQ(positional, plain);
  expect_no_inflight(*c, 3);
}

TEST(HedgeRead, InapplicableOnShortCircuitLocalReplica) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  auto c = racked_bed(3, 3, 0, 0);
  // A replica inside the client VM itself: short-circuit wins, hedging
  // (which exists to escape a slow device/daemon via ANOTHER replica)
  // deliberately stands down.
  c->add_datanode_in_vm("client1");
  c->preload_file("/f", kFileBytes, 11, {{"client1", "datanode2"}});
  c->enable_vread(testutil::validated(dc));
  c->client("client1")->set_short_circuit(true);
  c->client("client1")->set_hedge(eager_hedge());
  const std::uint64_t sum = read_checksum(*c, "client1");
  EXPECT_NE(sum, 0u);
  EXPECT_EQ(c->client("client1")->hedge_launched(), 0u);
  EXPECT_EQ(c->client("client1")->hedge_averted(), 0u);
  EXPECT_GT(c->client("client1")->short_circuit_reads(), 0u);
}

TEST(HedgeRead, WinsUnderSeededGcStall) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  dc.cache_bytes = 0;  // every read touches the device, where GC lives
  dc.disk.enabled = true;
  dc.disk.seed = 21;
  // Long, brutal windows: the stall (up to 8ms) must dwarf the hedge
  // leg's own overhead (a remote open round trip per read) for the
  // second leg to come back first.
  dc.disk.gc_period = sim::ms(10);
  dc.disk.gc_duration = sim::ms(8);
  auto c = hedge_bed(3, {"datanode2", "datanode3"}, dc, 21);
  c->client("client1")->set_hedge(eager_hedge());
  std::uint64_t wins_sum = 0;
  for (int i = 0; i < 12; ++i) {
    c->drop_all_caches();  // cold every round: the device decides the race
    const std::uint64_t off = static_cast<std::uint64_t>(i) * 512 * 1024;
    std::uint64_t sum = 0;
    c->run_job(checksum_pread(c->client("client1"), "/f", off, 256 * 1024, &sum, nullptr));
    EXPECT_NE(sum, 0u);
  }
  wins_sum = c->client("client1")->hedge_wins();
  // With the primary's device stalled 2ms at a time and the hedge firing
  // after 200us at a decorrelated replica, the second leg must win some.
  EXPECT_GT(wins_sum, 0u);
  EXPECT_GT(c->client("client1")->hedge_launched(), 0u);
  expect_no_inflight(*c, 3);
}

TEST(HedgeRead, AvertedWhenPrimaryIsFast) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  auto c = hedge_bed(3, {"datanode1", "datanode2", "datanode3"}, dc);
  HedgeConfig hc;
  hc.enabled = true;  // default 20ms max_delay: a small local read
  hc.warmup = 1u << 30;  // finishes long before the timer fires
  c->client("client1")->set_hedge(hc);
  // 512 KB off the co-located replica: ~3ms of device time, nowhere near
  // the 20ms timer. (A whole 4 MB block would legitimately out-run it.)
  const std::uint64_t sum = read_checksum(*c, "client1", 0, 512 * 1024);
  EXPECT_NE(sum, 0u);
  EXPECT_EQ(c->client("client1")->hedge_launched(), 0u);
  EXPECT_EQ(c->client("client1")->hedge_wins(), 0u);
  EXPECT_GT(c->client("client1")->hedge_averted(), 0u);
  expect_no_inflight(*c, 3);
}

TEST(HedgeRead, TenantAccountingConservedOnHedgeLoss) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  auto c = hedge_bed(3, {"datanode2", "datanode3"}, dc);
  hdfs::DfsClient* client = c->client("client1");
  client->set_hedge(eager_hedge());
  std::uint64_t received = 0;
  for (int i = 0; i < 3; ++i) {
    std::uint64_t sum = 0;
    c->run_job(pread_no_readahead(client, "/f",
                                  static_cast<std::uint64_t>(i) * 4 * 1024 * 1024,
                                  4 * 1024 * 1024, &sum, &received));
    EXPECT_NE(sum, 0u);
  }
  EXPECT_EQ(client->vread_fallback_reads(), 0u);  // every byte went via vRead
  // Both legs attach through client1's own channel, so all tenant
  // accounting lands on host1's scheduler. Conservation: what stays
  // charged (bytes - uncharged) is exactly what completing legs delivered —
  // the winner's payload plus any loser that outran its cancel (counted
  // client-side as wasted). A cancelled leg's partial delivery is charged
  // on the way in and un-charged at the abort, never half-counted.
  std::uint64_t charged = 0, uncharged = 0, cancelled = 0;
  for (int i = 1; i <= 3; ++i) {
    const core::DaemonStats s = c->daemon("host" + std::to_string(i))->stats_snapshot();
    cancelled += s.hedge_cancelled;
    for (const core::QosTenantStats& t : s.tenants) {
      charged += t.bytes;
      uncharged += t.uncharged;
    }
  }
  EXPECT_EQ(charged - uncharged, received + client->hedge_wasted_bytes());
  if (cancelled > 0) {
    EXPECT_GT(uncharged, 0u);
  }
  expect_no_inflight(*c, 3);
}

// ---- hedge fault points (seeded probabilistic schedules) ----------------

TEST(HedgeFaults, LegLostNeverCorruptsData) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  auto c = hedge_bed(3, {"datanode2", "datanode3"}, dc);
  const std::uint64_t plain = read_checksum(*c, "client1");
  fault::registry().arm(fault::points::kHedgeLegLost, testutil::prob(0.5));
  c->client("client1")->set_hedge(eager_hedge());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(read_checksum(*c, "client1"), plain);
  }
  expect_no_inflight(*c, 3);
}

TEST(HedgeFaults, BothSlowFullyOverlapsLegs) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  auto c = hedge_bed(3, {"datanode2", "datanode3"}, dc);
  const std::uint64_t plain = read_checksum(*c, "client1");
  // The fault forces a zero hedge delay: both legs run the whole read
  // concurrently, the worst case for the cancellation protocol.
  fault::registry().arm(fault::points::kHedgeBothSlow, testutil::prob(0.7));
  c->client("client1")->set_hedge(eager_hedge());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(read_checksum(*c, "client1"), plain);
  }
  EXPECT_GT(c->client("client1")->hedge_launched(), 0u);
  expect_no_inflight(*c, 3);
}

TEST(HedgeFaults, CancelRaceNeverDuplicatesBytes) {
  RegistryGuard guard;
  DaemonConfig dc;
  dc.workers = 4;
  auto c = hedge_bed(3, {"datanode2", "datanode3"}, dc);
  const std::uint64_t plain = read_checksum(*c, "client1");
  // The daemon intermittently misses the cancel flag: losing legs run to
  // completion. Their payload must land in the loser's buffer (wasted),
  // never appended to the winner's.
  fault::registry().arm(fault::points::kHedgeCancelRace, testutil::prob(0.5));
  std::uint64_t received = 0;
  c->client("client1")->set_hedge(eager_hedge());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(read_checksum(*c, "client1", 0, kFileBytes, &received), plain);
  }
  EXPECT_EQ(received, 4 * kFileBytes);  // exactly one file's worth per read
  expect_no_inflight(*c, 3);
}

}  // namespace
}  // namespace vread
