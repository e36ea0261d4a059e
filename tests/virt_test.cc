// Tests for the virtualization layer: VM disk I/O timing + caching, the
// inter-VM TCP path (copy structure, contention effects), and the vRead
// shared-memory channel.
#include <gtest/gtest.h>

#include <memory>

#include "hw/cost_model.h"
#include "mem/buffer.h"
#include "metrics/accounting.h"
#include "metrics/registry.h"
#include "sim/simulation.h"
#include "virt/host.h"
#include "virt/shm_channel.h"
#include "virt/vm.h"
#include "virt/vnet.h"

namespace vread::virt {
namespace {

using hw::CycleCategory;
using mem::Buffer;
using sim::ms;
using sim::SimTime;

struct TestBed {
  sim::Simulation sim;
  metrics::CycleAccounting acct;
  hw::CostModel costs;
  hw::Lan lan{sim, {}};
  std::vector<std::unique_ptr<Host>> hosts;
  std::unique_ptr<VirtualNetwork> net;

  TestBed() { net = std::make_unique<VirtualNetwork>(sim, lan, costs); }

  Host& add_host(const std::string& name, int cores = 4, double ghz = 2.0) {
    hosts.push_back(std::make_unique<Host>(
        sim, acct, costs, lan, Host::Config{.name = name, .cores = cores, .freq_ghz = ghz}));
    return *hosts.back();
  }

  Vm& add_vm(Host& h, const std::string& name) {
    Vm& vm = h.add_vm(name);
    net->register_vm(vm);
    return vm;
  }
};

sim::Task read_file_proc(Vm& vm, std::uint32_t ino, std::uint64_t off, std::uint64_t len,
                         Buffer& out, SimTime& done, bool copy_to_app = true) {
  co_await vm.fs_read(ino, off, len, out, CycleCategory::kClientApp, copy_to_app);
  done = vm.host().sim().now();
}

TEST(VmDiskIo, ReadReturnsCorrectBytesWithTiming) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& vm = tb.add_vm(h, "vm1");
  Buffer data = Buffer::deterministic(11, 0, 1 << 20);
  std::uint32_t ino = vm.fs().write_file("/f", data);
  Buffer out;
  SimTime done = -1;
  tb.sim.spawn(read_file_proc(vm, ino, 0, 1 << 20, out, done));
  tb.sim.run();
  EXPECT_EQ(out, data);
  // At least the device transfer time of 1 MB at 400 MB/s (~2.6 ms).
  EXPECT_GT(done, ms(2));
  EXPECT_GT(tb.acct.group_total("vm1", CycleCategory::kVirtioCopy), 0u);
  EXPECT_GT(tb.acct.group_total("vm1", CycleCategory::kDiskRead), 0u);
}

TEST(VmDiskIo, CachedRereadSkipsDevice) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& vm = tb.add_vm(h, "vm1");
  Buffer data = Buffer::deterministic(12, 0, 1 << 20);
  std::uint32_t ino = vm.fs().write_file("/f", data);
  vm.drop_caches();
  Buffer out1, out2;
  SimTime cold = -1, warm = -1;

  auto seq = [](Vm& v, std::uint32_t i, Buffer& o1, Buffer& o2, SimTime& c,
                SimTime& w) -> sim::Task {
    SimTime t0 = v.host().sim().now();
    co_await v.fs_read(i, 0, 1 << 20, o1, CycleCategory::kClientApp);
    c = v.host().sim().now() - t0;
    t0 = v.host().sim().now();
    co_await v.fs_read(i, 0, 1 << 20, o2, CycleCategory::kClientApp);
    w = v.host().sim().now() - t0;
  };
  tb.sim.spawn(seq(vm, ino, out1, out2, cold, warm));
  tb.sim.run();
  EXPECT_EQ(out1, data);
  EXPECT_EQ(out2, data);
  EXPECT_LT(warm, cold / 4);  // cache hit is far faster
  std::uint64_t disk_bytes = h.disk().bytes_read();
  EXPECT_EQ(disk_bytes, 1u << 20);  // device touched only once
}

TEST(VmDiskIo, DropCachesForcesDeviceAgain) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& vm = tb.add_vm(h, "vm1");
  std::uint32_t ino = vm.fs().write_file("/f", Buffer::deterministic(1, 0, 1 << 18));
  vm.drop_caches();
  Buffer out;
  SimTime done = -1;
  tb.sim.spawn(read_file_proc(vm, ino, 0, 1 << 18, out, done));
  tb.sim.run();
  std::uint64_t first = h.disk().bytes_read();
  vm.drop_caches();
  tb.sim.spawn(read_file_proc(vm, ino, 0, 1 << 18, out, done));
  tb.sim.run();
  EXPECT_EQ(h.disk().bytes_read(), first * 2);
}

TEST(VmDiskIo, AppendWritesThroughToDevice) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& vm = tb.add_vm(h, "vm1");
  std::uint32_t ino = vm.fs().create("/f");
  Buffer data = Buffer::deterministic(13, 0, 300'000);
  auto proc = [](Vm& v, std::uint32_t i, const Buffer& d) -> sim::Task {
    co_await v.fs_append(i, d, CycleCategory::kDatanodeApp);
  };
  tb.sim.spawn(proc(vm, ino, data));
  tb.sim.run();
  EXPECT_EQ(h.disk().bytes_written(), 300'000u);
  EXPECT_EQ(vm.fs().read(ino, 0, 300'000), data);
  // Freshly written data is in the guest cache: a re-read skips the device.
  Buffer out;
  SimTime done = -1;
  tb.sim.spawn(read_file_proc(vm, ino, 0, 300'000, out, done));
  tb.sim.run();
  EXPECT_EQ(h.disk().bytes_read(), 0u);
  EXPECT_EQ(out, data);
}

// --- Virtual TCP ---

sim::Task server_echo(VirtualNetwork& net, Vm& vm, std::uint16_t port, std::uint64_t n) {
  TcpSocket conn;
  co_await net.accept(vm, port, conn);
  Buffer req;
  co_await conn.recv_exact(n, req, CycleCategory::kDatanodeApp);
  co_await conn.send(std::move(req), CycleCategory::kDatanodeApp);
}

sim::Task client_echo(VirtualNetwork& net, Vm& vm, std::string server,
                      std::uint16_t port, Buffer payload, Buffer& reply, SimTime& done) {
  TcpSocket conn;
  co_await net.connect(vm, server, port, conn);
  std::uint64_t n = payload.size();
  co_await conn.send(std::move(payload), CycleCategory::kClientApp);
  co_await conn.recv_exact(n, reply, CycleCategory::kClientApp);
  done = vm.host().sim().now();
}

TEST(VirtualTcp, SameHostEchoDeliversBytesIntact) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& a = tb.add_vm(h, "vm1");
  Vm& b = tb.add_vm(h, "vm2");
  tb.net->listen(b, 9000);
  Buffer payload = Buffer::deterministic(21, 0, 500'000);
  Buffer reply;
  SimTime done = -1;
  tb.sim.spawn(server_echo(*tb.net, b, 9000, payload.size()));
  tb.sim.spawn(client_echo(*tb.net, a, "vm2", 9000, payload, reply, done));
  tb.sim.run();
  EXPECT_EQ(reply, payload);
  EXPECT_GT(done, 0);
}

TEST(VirtualTcp, CrossHostEchoDeliversBytesIntact) {
  TestBed tb;
  Host& h1 = tb.add_host("host1");
  Host& h2 = tb.add_host("host2");
  Vm& a = tb.add_vm(h1, "vm1");
  Vm& b = tb.add_vm(h2, "vm2");
  tb.net->listen(b, 9000);
  Buffer payload = Buffer::deterministic(22, 0, 500'000);
  Buffer reply;
  SimTime done_remote = -1;
  tb.sim.spawn(server_echo(*tb.net, b, 9000, payload.size()));
  tb.sim.spawn(client_echo(*tb.net, a, "vm2", 9000, payload, reply, done_remote));
  tb.sim.run();
  EXPECT_EQ(reply, payload);
  EXPECT_GT(tb.acct.group_total("host1", CycleCategory::kHostNet) +
                tb.acct.group_total("vm1", CycleCategory::kHostNet),
            0u);
}

TEST(VirtualTcp, RemoteIsSlowerThanColocated) {
  SimTime local_done = -1, remote_done = -1;
  {
    TestBed tb;
    Host& h = tb.add_host("host1");
    Vm& a = tb.add_vm(h, "vm1");
    Vm& b = tb.add_vm(h, "vm2");
    tb.net->listen(b, 9000);
    Buffer payload = Buffer::deterministic(23, 0, 2 << 20);
    Buffer reply;
    tb.sim.spawn(server_echo(*tb.net, b, 9000, payload.size()));
    tb.sim.spawn(client_echo(*tb.net, a, "vm2", 9000, payload, reply, local_done));
    tb.sim.run();
  }
  {
    TestBed tb;
    Host& h1 = tb.add_host("host1");
    Host& h2 = tb.add_host("host2");
    Vm& a = tb.add_vm(h1, "vm1");
    Vm& b = tb.add_vm(h2, "vm2");
    tb.net->listen(b, 9000);
    Buffer payload = Buffer::deterministic(23, 0, 2 << 20);
    Buffer reply;
    tb.sim.spawn(server_echo(*tb.net, b, 9000, payload.size()));
    tb.sim.spawn(client_echo(*tb.net, a, "vm2", 9000, payload, reply, remote_done));
    tb.sim.run();
  }
  EXPECT_GT(remote_done, local_done);
}

TEST(VirtualTcp, FiveCopyStructureOfVanillaPath) {
  // Structural invariant (Fig. 1): a one-way inter-VM transfer performs
  // exactly 5 per-byte copies: app->skb, skb->TXring, ring->bridge (vhost),
  // bridge->RXring, skb->app.
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& a = tb.add_vm(h, "vm1");
  Vm& b = tb.add_vm(h, "vm2");
  tb.net->listen(b, 9000);
  const std::uint64_t n = 1 << 20;

  auto server = [](VirtualNetwork& net, Vm& vm, std::uint64_t want) -> sim::Task {
    TcpSocket conn;
    co_await net.accept(vm, 9000, conn);
    Buffer req;
    co_await conn.recv_exact(want, req, CycleCategory::kDatanodeApp);
  };
  auto client = [](VirtualNetwork& net, Vm& vm, std::uint64_t want) -> sim::Task {
    TcpSocket conn;
    co_await net.connect(vm, "vm2", 9000, conn);
    co_await conn.send(Buffer::deterministic(1, 0, want), CycleCategory::kClientApp);
  };
  tb.sim.spawn(server(*tb.net, b, n));
  tb.sim.spawn(client(*tb.net, a, n));
  tb.sim.run();

  const double per_copy = static_cast<double>(tb.costs.copy_cost(n));
  auto all = [&](CycleCategory c) {
    return static_cast<double>(tb.acct.group_total("vm1", c) +
                               tb.acct.group_total("vm2", c));
  };
  // Copies tagged as app-buffer copies: app->skb (client side) + skb->app
  // (server side) = 2 total.
  double app_copies = (all(CycleCategory::kClientApp) + all(CycleCategory::kDatanodeApp));
  EXPECT_NEAR(app_copies / per_copy, 2.0, 0.1);
  // virtio ring copies: TX ring (guest) + RX ring (vhost) = 2 per byte.
  double ring = all(CycleCategory::kVirtioCopy);
  EXPECT_NEAR(ring / per_copy, 2.0, 0.2);  // + small per-segment overheads
  // vhost inter-VM copy = 1 per byte (+ per-segment overheads).
  double vhost = all(CycleCategory::kVhostNet);
  EXPECT_NEAR(vhost / per_copy, 1.0, 0.2);
}

TEST(VirtualTcp, SendfileSkipsAppCopy) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& a = tb.add_vm(h, "vm1");
  Vm& b = tb.add_vm(h, "vm2");
  tb.net->listen(b, 9000);
  const std::uint64_t n = 1 << 20;
  auto server = [](VirtualNetwork& net, Vm& vm, std::uint64_t want) -> sim::Task {
    TcpSocket conn;
    co_await net.accept(vm, 9000, conn);
    Buffer req;
    co_await conn.recv_exact(want, req, CycleCategory::kDatanodeApp);
  };
  auto client = [](VirtualNetwork& net, Vm& vm, std::uint64_t want) -> sim::Task {
    TcpSocket conn;
    co_await net.connect(vm, "vm2", 9000, conn);
    co_await conn.send(Buffer::deterministic(1, 0, want), CycleCategory::kClientApp,
                        /*from_app_buffer=*/false);
  };
  tb.sim.spawn(server(*tb.net, b, n));
  tb.sim.spawn(client(*tb.net, a, n));
  tb.sim.run();
  // No app->skb copy on the sender: kClientApp holds no per-byte copies.
  EXPECT_LT(tb.acct.group_total("vm1", CycleCategory::kClientApp),
            tb.costs.copy_cost(n) / 10);
}

TEST(VirtualTcp, EofSemantics) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& a = tb.add_vm(h, "vm1");
  Vm& b = tb.add_vm(h, "vm2");
  tb.net->listen(b, 9000);
  bool got_eof = false;
  auto server = [](VirtualNetwork& net, Vm& vm, bool& eof_flag) -> sim::Task {
    TcpSocket conn;
    co_await net.accept(vm, 9000, conn);
    Buffer got;
    co_await conn.recv_some(1 << 16, got, CycleCategory::kDatanodeApp);
    // Next read returns empty: EOF.
    Buffer got2;
    co_await conn.recv_some(1 << 16, got2, CycleCategory::kDatanodeApp);
    eof_flag = got2.empty() && !got.empty();
  };
  auto client = [](VirtualNetwork& net, Vm& vm) -> sim::Task {
    TcpSocket conn;
    co_await net.connect(vm, "vm2", 9000, conn);
    co_await conn.send(Buffer::deterministic(1, 0, 1000), CycleCategory::kClientApp);
    conn.close();
  };
  tb.sim.spawn(server(*tb.net, b, got_eof));
  tb.sim.spawn(client(*tb.net, a));
  tb.sim.run();
  EXPECT_TRUE(got_eof);
}

TEST(VirtualTcp, ConnectToUnknownVmThrows) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& a = tb.add_vm(h, "vm1");
  auto client = [](VirtualNetwork& net, Vm& vm) -> sim::Task {
    TcpSocket conn;
    co_await net.connect(vm, "ghost", 9000, conn);
  };
  tb.sim.spawn(client(*tb.net, a));
  EXPECT_THROW(tb.sim.run(), NetError);
}

// --- ShmChannel ---

sim::Task shm_daemon(ShmChannel& ch, hw::ThreadId tid, std::uint64_t payload_seed,
                     std::uint64_t payload_len) {
  ShmRequest req = co_await ch.requests().recv();
  ShmResponse resp;
  resp.id = req.id;
  resp.status = 0;
  resp.vfd = 77;
  resp.data = mem::Buffer::deterministic(payload_seed, req.offset, payload_len);
  co_await ch.respond(tid, std::move(resp));
}

sim::Task shm_client(ShmChannel& ch, ShmResponse& out) {
  ShmRequest req;
  req.id = 5;
  req.op = 1;
  req.offset = 128;
  co_await ch.call(std::move(req), out);
}

TEST(ShmChannel, RequestResponseCarriesData) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& vm = tb.add_vm(h, "vm1");
  ShmChannel ch(vm, tb.costs);
  hw::ThreadId daemon = h.cpu().add_thread("vread-daemon", "host1");
  ShmResponse resp;
  tb.sim.spawn(shm_daemon(ch, daemon, 99, 1 << 20));
  tb.sim.spawn(shm_client(ch, resp));
  tb.sim.run();
  EXPECT_EQ(resp.status, 0);
  EXPECT_EQ(resp.vfd, 77u);
  EXPECT_EQ(resp.data, Buffer::deterministic(99, 128, 1 << 20));
  // Exactly 2 per-byte copies on the vRead buffer path.
  double copies = static_cast<double>(
      tb.acct.group_total("vm1", CycleCategory::kVreadBufferCopy) +
      tb.acct.group_total("host1", CycleCategory::kVreadBufferCopy));
  EXPECT_NEAR(copies / static_cast<double>(tb.costs.copy_cost(1 << 20)), 2.0, 0.2);
}

TEST(ShmChannel, RingBackpressureStillDeliversEverything) {
  // Response four times the default ring (4 MB): it streams through the
  // ring in many chunks and arrives intact. The guest drains each chunk
  // before the daemon needs its slots, so nothing blocks here;
  // TinyRingBlocksTheDaemonAndDrainsBack fills the ring.
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& vm = tb.add_vm(h, "vm1");
  ShmChannel ch(vm, tb.costs);
  hw::ThreadId daemon = h.cpu().add_thread("vread-daemon", "host1");
  const std::uint64_t len = 16ULL << 20;  // 16 MB > 4 MB ring
  ShmResponse resp;
  tb.sim.spawn(shm_daemon(ch, daemon, 100, len));
  tb.sim.spawn(shm_client(ch, resp));
  tb.sim.run();
  EXPECT_EQ(resp.data.size(), len);
  EXPECT_EQ(resp.data, Buffer::deterministic(100, 128, len));
  EXPECT_EQ(ch.free_slots(), tb.costs.shm_slot_count);
}

// Producer stalls on a full ring, read from the process-wide registry
// (live and retired series of `vm` summed).
std::uint64_t slot_waits(const std::string& vm) {
  std::uint64_t total = 0;
  for (const auto& row : metrics::registry().snapshot().rows) {
    if (row.name != "vread_shm_slot_waits_total") continue;
    for (const auto& [key, value] : row.labels) {
      if (key == "vm" && value == vm) total += row.counter;
    }
  }
  return total;
}

TEST(ShmChannel, TinyRingBlocksTheDaemonAndDrainsBack) {
  // A 16-slot ring (64 KB) under a 1 MB response: every chunk takes the
  // whole ring, so the daemon blocks until the guest drains the previous
  // one. The bytes still arrive intact and every slot comes back.
  TestBed tb;
  tb.costs.shm_slot_count = 16;
  Host& h = tb.add_host("host1");
  Vm& vm = tb.add_vm(h, "tiny-ring-vm");
  ShmChannel ch(vm, tb.costs);
  hw::ThreadId daemon = h.cpu().add_thread("vread-daemon", "host1");
  const std::uint64_t waits_before = slot_waits("tiny-ring-vm");
  const std::uint64_t len = 1ULL << 20;
  ShmResponse resp;
  tb.sim.spawn(shm_daemon(ch, daemon, 101, len));
  tb.sim.spawn(shm_client(ch, resp));
  tb.sim.run();
  EXPECT_GT(slot_waits("tiny-ring-vm"), waits_before);
  EXPECT_EQ(resp.data, Buffer::deterministic(101, 128, len));
  EXPECT_EQ(ch.free_slots(), 16u);
}

TEST(ShmChannel, ZeroCopyResponseSkipsProducerCopy) {
  TestBed tb;
  Host& h = tb.add_host("host1");
  Vm& vm = tb.add_vm(h, "vm1");
  ShmChannel ch(vm, tb.costs);
  hw::ThreadId daemon = h.cpu().add_thread("vread-daemon", "host1");
  auto producer = [](ShmChannel& c, hw::ThreadId tid) -> sim::Task {
    ShmRequest req = co_await c.requests().recv();
    ShmResponse resp;
    resp.id = req.id;
    resp.data = Buffer::deterministic(1, 0, 1 << 20);
    co_await c.respond(tid, std::move(resp), /*charge_copy=*/false);
  };
  ShmResponse resp;
  tb.sim.spawn(producer(ch, daemon));
  tb.sim.spawn(shm_client(ch, resp));
  tb.sim.run();
  // Only the guest-side copy remains (~1 copy of per-byte cost).
  double copies = static_cast<double>(
      tb.acct.group_total("vm1", CycleCategory::kVreadBufferCopy) +
      tb.acct.group_total("host1", CycleCategory::kVreadBufferCopy));
  EXPECT_NEAR(copies / static_cast<double>(tb.costs.copy_cost(1 << 20)), 1.0, 0.2);
}

}  // namespace
}  // namespace vread::virt
