// Repository benchmark: runs ONE workload per process and prints one JSON
// line with its modeled metrics (simulated time, deterministic for a seed)
// and its simulator metrics (host time and memory, noisy).
//
//   vread_benchmark --workload W --seed S [--trace] [--smoke] [--setup-only]
//                   [--rate R] [--span S]
//   vread_benchmark --probes SECONDS
//
// Workloads (benchmark/README.md says why each one exists):
//   dfsio-hybrid     Fig. 10 bed, 4 VMs, RDMA, 256 MiB file placed alternately
//                    co-located/remote; 1 cold pass + 3 re-reads of ~1 MiB
//                    sequential reads, closed loop
//   pread-open-loop  racked 2.5 Gbps TCP bed, seeded SSD GC, hedging, EDF;
//                    Poisson 8 KiB random preads from 3 readers, 8 slots each
//   shared-rescan    peer-cache bed; 5 readers re-scan one 24 MiB file with
//                    cyclic 1 MiB preads from evenly spaced starts, closed loop
//   write-read-mix   Fig. 10 bed, 2 VMs; a 256 MiB pipeline write beside a
//                    cold 256 MiB sequential read
//
// The seed makes every input: file contents, request sizes and offsets,
// arrival and start times, and the GC schedule. Each layer is measured from
// outside src/: timed calls into public functions, public counters, the
// metrics registry and the existing tracer (--trace). Every read's bytes are
// checked against mem::Buffer::deterministic; that check is harness work, so
// its host time is kept out of wall_s.
//
// --probes runs the host-time layer probes instead (mem::Buffer and
// core::BlockCache operations, ns per byte, median of 5 repetitions).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.h"
#include "core/block_cache.h"
#include "core/vread_daemon.h"
#include "hdfs/datanode.h"
#include "hdfs/dfs_client.h"
#include "mem/buffer.h"
#include "metrics/categories.h"
#include "metrics/registry.h"
#include "metrics/stats.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "trace/aggregate.h"
#include "trace/tracer.h"

namespace vread::bm {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;
// Latency recorded for a read that threw or returned an error: it misses
// every latency limit.
constexpr sim::SimTime kFailed = INT64_MAX;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// SplitMix64 finalizer: derives independent input streams from one seed.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// "<prefix><i>": host, VM and block names. Appending (rather than
// const char* + std::string) avoids a GCC 12 -Wrestrict false positive.
std::string numbered(const char* prefix, std::size_t i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;        // reduced sizes for the self-test
  bool setup_only = false;   // build the bed, report set-up time, skip the run
  double rate = 3000.0;      // pread-open-loop: total arrivals per second
  double span_s = 0;         // pread-open-loop: simulated seconds of arrivals
  double probe_seconds = 0;  // > 0: run the layer probes, not a workload
};

// Host seconds of each set-up phase.
struct SetupTimes {
  double topology = 0;  // cluster, hosts, VMs, HDFS daemons, clients
  double preload = 0;   // file contents and generated inputs
  double enable = 0;    // enable_vread, routing/hedging, cache drop
};

// One arrival of the open-loop generator.
struct Arrival {
  sim::SimTime due = 0;  // after the run starts
  std::uint64_t offset = 0;
};

// Everything one workload run owns and produces.
struct Bench {
  Args args;
  std::unique_ptr<Cluster> c;
  std::vector<std::string> hosts;
  std::set<std::string> lookbusy;  // VM groups left out of cpu_ms_per_gb
  std::uint64_t content_seed = 0;

  // Generated inputs.
  std::vector<std::vector<Arrival>> arrivals;  // pread-open-loop, per reader
  std::vector<std::uint64_t> scan_starts;      // shared-rescan, per reader
  mem::Buffer write_data;                      // write-read-mix

  // Outcome.
  std::vector<sim::SimTime> lat;        // per read; kFailed when it failed
  std::vector<sim::SimTime> slot_wait;  // open loop: read start - due time
  std::uint64_t failed = 0;
  std::uint64_t bad_bytes = 0;          // bytes differing from the contents
  std::uint64_t read_bytes = 0;         // verified bytes delivered
  std::uint64_t write_bytes = 0;
  sim::SimTime write_elapsed = 0;
  sim::SimTime run_begin = 0;
  sim::SimTime first_start = kFailed;   // earliest read start (or due time)
  sim::SimTime last_done = 0;           // latest read completion
  sim::SimTime arrival_span = 0;        // open loop: run start to last due
  double verify_s = 0;                  // host time spent checking bytes

  sim::Simulation& sim() { return c->sim(); }

  // Seeded start time in [0, max) of closed-loop client `stream`: where its
  // first request lands against the other clients.
  sim::SimTime start_offset(std::uint64_t stream, sim::SimTime max) const {
    return static_cast<sim::SimTime>(mix64(args.seed, stream) % static_cast<std::uint64_t>(max));
  }

  // Records one finished read, timed from `due`, and checks its bytes
  // against the contents of the file written with `seed`.
  void record(sim::SimTime due, std::uint64_t seed, std::uint64_t off, std::uint64_t len,
              const hdfs::ReadResult& res, bool threw) {
    const Clock::time_point t0 = Clock::now();
    const sim::SimTime now = sim().now();
    first_start = std::min(first_start, due);
    last_done = std::max(last_done, now);
    if (threw || !res.status.ok()) {
      ++failed;
      lat.push_back(kFailed);
    } else {
      lat.push_back(now - due);
      if (res.data.size() == len && res.data == mem::Buffer::deterministic(seed, off, len)) {
        read_bytes += len;
      } else {
        bad_bytes += len;
      }
    }
    verify_s += seconds_since(t0);
  }
};

// ---- beds ----------------------------------------------------------------

// The paper's Fig. 10 testbed at 2.0 GHz: host1 runs the client VM (with
// the namenode) and datanode1, host2 runs datanode2. `four_vms` fills both
// quad-core hosts to 4 VMs with 85% lookbusy; `writer` adds a writing
// client VM on host2.
void paper_bed(Bench& b, bool four_vms, bool writer) {
  ClusterConfig cfg;
  cfg.freq_ghz = 2.0;
  cfg.block_size = 16 * kMiB;
  b.c = std::make_unique<Cluster>(cfg);
  Cluster& c = *b.c;
  b.hosts = {"host1", "host2"};
  for (const std::string& h : b.hosts) c.add_host(h);
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_datanode("host2", "datanode2");
  c.add_client("client");
  if (writer) {
    c.add_vm("host2", "writer");
    c.add_client("writer");
  }
  if (four_vms) {
    const std::vector<std::pair<std::string, std::string>> bg = {
        {"host1", "bg1a"}, {"host1", "bg1b"}, {"host2", "bg2a"}, {"host2", "bg2b"},
        {"host2", "bg2c"}};
    for (const auto& [host, vm] : bg) {
      c.add_lookbusy(host, vm, 0.85);
      b.lookbusy.insert(vm);
    }
  }
}

// The racked bed of the tail and peer-cache ablations: 4 MiB blocks,
// 8-core hosts, 2.5 Gbps tenant links, 3 hosts per rack and 4 MiB host
// page caches, so repeat reads reach the device. `owners` hosts hold the
// datanodes; each reader gets its own host and client VM (c1, c2, ...).
void racked_bed(Bench& b, std::size_t owners, std::size_t readers,
                double disk_read_mbps) {
  ClusterConfig cfg;
  cfg.block_size = 4 * kMiB;
  cfg.cores_per_host = 8;
  cfg.link.bw_gbps = 2.5;
  if (disk_read_mbps > 0) cfg.disk.read_bw_mbps = disk_read_mbps;
  cfg.page_cache_bytes = 4 * kMiB;
  cfg.racks.hosts_per_rack = 3;
  b.c = std::make_unique<Cluster>(cfg);
  Cluster& c = *b.c;
  for (std::size_t i = 0; i < owners + readers; ++i) {
    b.hosts.push_back(numbered("host", i + 1));
    c.add_host(b.hosts.back());
  }
  c.add_vm("host1", "nn");
  c.create_namenode("nn");
  for (std::size_t i = 0; i < owners; ++i) {
    c.add_datanode(b.hosts[i], numbered("datanode", i + 1));
  }
  for (std::size_t i = 0; i < readers; ++i) {
    const std::string vm = numbered("c", i + 1);
    c.add_vm(b.hosts[owners + i], vm);
    c.add_client(vm);
  }
}

// ---- reader tasks ----------------------------------------------------------

// Sequential reads of `path` from start to end, `passes` times: TestDFSIO's
// read loop with its per-byte map-task CPU, but with request sizes seeded
// between 964 KiB and 1 MiB in 4 KiB steps. With a fixed 1 MiB buffer most
// reads take exactly the same simulated time, so the median would not
// depend on the inputs at all. Each DfsInputStream::read is timed.
sim::Task sequential_reader(Bench* b, std::string vm, std::string path,
                            std::uint64_t file_bytes, int passes, sim::Latch* done) {
  hdfs::DfsClient* client = b->c->client(vm);
  const hw::CostModel& cm = b->c->costs();
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  std::uint64_t n = 0;
  for (int p = 0; p < passes; ++p) {
    in->seek(0);
    std::uint64_t off = 0;
    while (off < file_bytes) {
      hdfs::ReadRequest req;
      req.len = kMiB - 4 * kKiB * (mix64(b->args.seed, 1000 + n++) % 16);
      const std::uint64_t len = std::min(req.len, file_bytes - off);
      hdfs::ReadResult res;
      const sim::SimTime t0 = b->sim().now();
      bool threw = false;
      try {
        co_await in->read(req, res);
      } catch (const std::exception&) {
        threw = true;
        in->seek(off + len);
      }
      b->record(t0, b->content_seed, off, len, res, threw);
      off += len;
      if (!threw) {
        co_await client->vm().run_vcpu(cm.per_byte(res.data.size(), cm.dfsio_app_cycles_per_byte),
                                       hw::CycleCategory::kClientApp);
      }
    }
  }
  co_await in->close();
  done->count_down();
}

// One of a reader's open-loop slots: takes the reader's next arrival, waits
// for its due time, reads, repeats. A read that finds every slot busy
// starts late; its latency still counts from the due time.
sim::Task open_loop_slot(Bench* b, std::string vm, std::size_t reader, std::size_t* next,
                         sim::Latch* done) {
  constexpr std::uint64_t kLen = 8 * kKiB;
  constexpr sim::SimTime kDeadline = sim::ms(25);  // the SLO, as an EDF deadline
  const std::vector<Arrival>& arr = b->arrivals[reader];
  const std::string path = "/data";
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await b->c->client(vm)->open(path, in);
  while (*next < arr.size()) {
    const Arrival a = arr[(*next)++];
    const sim::SimTime due = b->run_begin + a.due;
    if (b->sim().now() < due) co_await b->sim().delay(due - b->sim().now());
    b->slot_wait.push_back(b->sim().now() - due);
    hdfs::ReadRequest req;
    req.offset = a.offset;
    req.len = kLen;
    req.readahead = false;  // random access: readahead only adds device load
    req.deadline = due + kDeadline;
    hdfs::ReadResult res;
    bool threw = false;
    try {
      co_await in->read(req, res);
    } catch (const std::exception&) {
      threw = true;
    }
    b->record(due, b->content_seed, a.offset, kLen, res, threw);
  }
  co_await in->close();
  done->count_down();
}

// Cyclic 1 MiB preads over the whole file starting at `start_chunk`.
sim::Task rescan_reader(Bench* b, std::string vm, std::uint64_t start_chunk,
                        std::uint64_t file_bytes, std::size_t rounds, sim::SimTime start,
                        sim::Latch* done) {
  co_await b->sim().delay(start);
  const std::uint64_t chunks = file_bytes / kMiB;
  const std::string path = "/data";
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await b->c->client(vm)->open(path, in);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::uint64_t i = 0; i < chunks; ++i) {
      const std::uint64_t off = ((start_chunk + i) % chunks) * kMiB;
      hdfs::ReadRequest req;
      req.offset = off;
      req.len = kMiB;
      hdfs::ReadResult res;
      const sim::SimTime t0 = b->sim().now();
      bool threw = false;
      try {
        co_await in->read(req, res);
      } catch (const std::exception&) {
        threw = true;
      }
      b->record(t0, b->content_seed, off, kMiB, res, threw);
    }
  }
  co_await in->close();
  done->count_down();
}

sim::Task pipeline_writer(Bench* b, std::string vm, sim::SimTime start, sim::Latch* done) {
  co_await b->sim().delay(start);
  // Arguments hoisted out of the co_await: GCC rejects string literals
  // initialising a coroutine argument there ("array used as initializer").
  const std::string path = "/out";
  hdfs::DfsClient::Placement placement = Cluster::place_on({"datanode1", "datanode2"});
  const sim::SimTime t0 = b->sim().now();
  co_await b->c->client(vm)->write_file(path, b->write_data, std::move(placement),
                                        b->c->config().block_size);
  b->write_elapsed = b->sim().now() - t0;
  b->write_bytes = b->write_data.size();
  done->count_down();
}

// ---- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  void (*setup)(Bench&, SetupTimes&);
  sim::Task (*run)(Bench*);
};

// Times one set-up phase into `slot`.
class PhaseTimer {
 public:
  void lap(double& slot) {
    slot = seconds_since(t_);
    t_ = Clock::now();
  }

 private:
  Clock::time_point t_ = Clock::now();
};

std::uint64_t dfsio_bytes(const Bench& b) { return (b.args.smoke ? 32 : 256) * kMiB; }

void setup_dfsio(Bench& b, SetupTimes& t) {
  PhaseTimer p;
  paper_bed(b, /*four_vms=*/true, /*writer=*/false);
  p.lap(t.topology);
  b.content_seed = b.args.seed;
  b.c->preload_file("/data", dfsio_bytes(b), b.content_seed, {{"datanode1"}, {"datanode2"}});
  p.lap(t.preload);
  b.c->enable_vread(core::Transport::kRdma);
  b.c->drop_all_caches();
  p.lap(t.enable);
}

sim::Task run_dfsio(Bench* b) {
  sim::Latch done(b->sim(), 1);
  b->sim().spawn(sequential_reader(b, "client", "/data", dfsio_bytes(*b),
                                   b->args.smoke ? 2 : 4, &done));
  co_await done.wait();
}

constexpr std::size_t kOpenLoopReaders = 3;
constexpr std::size_t kOpenLoopSlots = 8;

void setup_open_loop(Bench& b, SetupTimes& t) {
  constexpr std::uint64_t kFileBytes = 64 * kMiB;
  PhaseTimer p;
  racked_bed(b, /*owners=*/2, kOpenLoopReaders, /*disk_read_mbps=*/0);
  p.lap(t.topology);
  b.content_seed = b.args.seed;
  b.c->preload_file("/data", kFileBytes, b.content_seed, {{"datanode1", "datanode2"}});
  // Poisson arrivals per reader over `span_s` simulated seconds,
  // conditioned on exactly rate * span of them: sorted uniform times. The
  // condition fixes the offered load, so read_mbps does not wander with
  // the seed; the fixed span keeps the number of GC windows the same at
  // every rate. Offsets are uniform and 8 KiB aligned.
  const double span_s = b.args.span_s > 0 ? b.args.span_s : (b.args.smoke ? 0.5 : 60.0);
  const auto per_reader = static_cast<std::uint64_t>(
      std::llround(b.args.rate / static_cast<double>(kOpenLoopReaders) * span_s));
  const sim::SimTime lead_in = sim::ms(5);  // stream opens before the first due
  b.arrivals.assign(kOpenLoopReaders, {});
  for (std::size_t r = 0; r < kOpenLoopReaders; ++r) {
    sim::Rng rng(mix64(b.args.seed, 100 + r));
    std::vector<sim::SimTime> due(per_reader);
    for (sim::SimTime& t : due) {
      t = lead_in + static_cast<sim::SimTime>(rng.uniform01() * span_s * 1e9);
    }
    std::sort(due.begin(), due.end());
    for (const sim::SimTime t : due) {
      b.arrivals[r].push_back(Arrival{t, rng.next() % (kFileBytes / (8 * kKiB)) * 8 * kKiB});
    }
  }
  p.lap(t.preload);
  core::DaemonConfig dc;
  dc.workers = 4;
  dc.transport = core::Transport::kTcp;
  dc.cache_bytes = 0;  // no daemon cache: every miss reaches the device
  dc.qos.edf = true;
  dc.disk.enabled = true;  // seeded GC, decorrelated per host by the daemon
  dc.disk.seed = mix64(b.args.seed, 7);
  dc.disk.gc_period = sim::ms(1000);
  dc.disk.gc_duration = sim::ms(20);
  b.c->enable_vread(dc);
  // Default (static) routing sends every primary leg to datanode1, so the
  // default rate loads its device to about 60% of saturation; hedges go to
  // datanode2.
  hdfs::HedgeConfig hc;
  hc.enabled = true;
  hc.quantile = 90.0;
  hc.max_delay = sim::ms(6);
  for (std::size_t r = 0; r < kOpenLoopReaders; ++r) {
    b.c->client(numbered("c", r + 1))->set_hedge(hc);
  }
  b.c->drop_all_caches();
  p.lap(t.enable);
}

sim::Task run_open_loop(Bench* b) {
  sim::Latch done(b->sim(), kOpenLoopReaders * kOpenLoopSlots);
  std::vector<std::size_t> next(kOpenLoopReaders, 0);
  for (std::size_t r = 0; r < kOpenLoopReaders; ++r) {
    for (std::size_t s = 0; s < kOpenLoopSlots; ++s) {
      b->sim().spawn(open_loop_slot(b, numbered("c", r + 1), r, &next[r], &done));
    }
    b->arrival_span = std::max(b->arrival_span, b->arrivals[r].back().due);
  }
  co_await done.wait();
}

constexpr std::size_t kRescanReaders = 5;
constexpr std::uint64_t kRescanBytes = 24 * kMiB;

void setup_rescan(Bench& b, SetupTimes& t) {
  PhaseTimer p;
  racked_bed(b, /*owners=*/1, kRescanReaders, /*disk_read_mbps=*/60.0);
  p.lap(t.topology);
  b.content_seed = b.args.seed;
  b.c->preload_file("/data", kRescanBytes, b.content_seed, {{"datanode1"}});
  // Readers start evenly spread over the file. The starts are fixed, not
  // seeded: a seeded rotation only moves them across block boundaries, and
  // that alone swings p99 of 1,080 reads by 30% from seed to seed.
  const std::uint64_t chunks = kRescanBytes / kMiB;
  for (std::size_t i = 0; i < kRescanReaders; ++i) {
    b.scan_starts.push_back(i * chunks / kRescanReaders);
  }
  p.lap(t.preload);
  core::DaemonConfig dc;
  dc.workers = 4;
  dc.transport = core::Transport::kTcp;
  dc.cache_bytes = 8 * kMiB;  // a third of the working set per daemon
  dc.peer_cache.enabled = true;
  b.c->enable_vread(dc);
  b.c->drop_all_caches();
  p.lap(t.enable);
}

sim::Task run_rescan(Bench* b) {
  sim::Latch done(b->sim(), kRescanReaders);
  for (std::size_t i = 0; i < kRescanReaders; ++i) {
    b->sim().spawn(rescan_reader(b, numbered("c", i + 1), b->scan_starts[i], kRescanBytes,
                                 b->args.smoke ? 2 : 9, b->start_offset(30 + i, sim::ms(1)),
                                 &done));
  }
  co_await done.wait();
}

void setup_write_read(Bench& b, SetupTimes& t) {
  PhaseTimer p;
  paper_bed(b, /*four_vms=*/false, /*writer=*/true);
  p.lap(t.topology);
  b.content_seed = b.args.seed;
  b.c->preload_file("/data", dfsio_bytes(b), b.content_seed, {{"datanode1"}, {"datanode2"}});
  b.write_data = mem::Buffer::deterministic(mix64(b.args.seed, 17), 0, dfsio_bytes(b));
  p.lap(t.preload);
  b.c->enable_vread(core::Transport::kRdma);
  b.c->drop_all_caches();
  p.lap(t.enable);
}

// Every replica of /out must hold exactly the bytes written. Harness work,
// timed into verify_s like the per-read checks.
void check_written_file(Bench& b) {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t total = 0;
  for (const hdfs::BlockInfo& blk : b.c->namenode().all_blocks("/out")) {
    for (const char* dn : {"datanode1", "datanode2"}) {
      fs::SimFs& fs = b.c->datanode(dn)->vm().fs();
      const auto inode = fs.lookup(hdfs::DataNode::block_path(blk.name));
      if (!inode || fs.read(*inode, 0, blk.size) !=
                        b.write_data.slice(blk.offset_in_file, blk.size)) {
        b.bad_bytes += blk.size;
      }
    }
    total += blk.size;
  }
  if (total != b.write_data.size()) b.bad_bytes += b.write_data.size();
  b.verify_s += seconds_since(t0);
}

sim::Task run_write_read(Bench* b) {
  sim::Latch done(b->sim(), 2);
  b->sim().spawn(pipeline_writer(b, "writer", b->start_offset(22, sim::ms(5)), &done));
  b->sim().spawn(sequential_reader(b, "client", "/data", dfsio_bytes(*b), 1, &done));
  co_await done.wait();
  check_written_file(*b);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"dfsio-hybrid", setup_dfsio, run_dfsio},
      {"pread-open-loop", setup_open_loop, run_open_loop},
      {"shared-rescan", setup_rescan, run_rescan},
      {"write-read-mix", setup_write_read, run_write_read},
  };
  return w;
}

// ---- metrics ---------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Nearest-rank percentile `per_mille`/10 of `v`.
sim::SimTime nearest_rank(std::vector<sim::SimTime> v, int per_mille) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = (v.size() * static_cast<std::size_t>(per_mille) + 999) / 1000;
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// The highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond it.
int tail_per_mille(std::size_t n) {
  for (int pm : {999, 990, 950, 900}) {
    if (n * static_cast<std::size_t>(1000 - pm) >= 10000) return pm;
  }
  return 500;
}

// Sums, maxima and merged histograms over every series of a metric family
// in the process-wide registry (one workload run per process, so the
// registry holds exactly this run).
class RegistryView {
 public:
  RegistryView() : snap_(metrics::registry().snapshot()) {}

  double counter(const std::string& name, const std::string& key = {},
                 const std::string& value = {}) const {
    std::uint64_t sum = 0;
    for (const auto& row : snap_.rows) {
      if (row.name == name && matches(row.labels, key, value)) sum += row.counter;
    }
    return static_cast<double>(sum);
  }
  double gauge_high(const std::string& name) const {
    std::int64_t high = 0;
    for (const auto& row : snap_.rows) {
      if (row.name == name) high = std::max(high, row.gauge_high);
    }
    return static_cast<double>(high);
  }
  metrics::Histogram histogram(const std::string& name) const {
    metrics::Histogram h;
    for (const auto& row : snap_.rows) {
      if (row.name == name) h.merge(row.histogram);
    }
    return h;
  }

 private:
  static bool matches(const metrics::Labels& labels, const std::string& key,
                      const std::string& value) {
    if (key.empty()) return true;
    for (const auto& [k, v] : labels) {
      if (k == key) return v == value;
    }
    return false;
  }

  metrics::Registry::Snapshot snap_;
};

// Per-host device and cache counters, captured at run start for deltas.
struct HostCounters {
  double disk_read = 0, disk_reads = 0, disk_batches = 0, gc_stalls = 0;
  double disk_written = 0, write_stalls = 0, pc_hits = 0, pc_misses = 0;

  static HostCounters of(Bench& b) {
    HostCounters h;
    for (const std::string& name : b.hosts) {
      virt::Host* host = b.c->host(name);
      const hw::Disk& d = host->disk();
      h.disk_read += static_cast<double>(d.bytes_read());
      h.disk_reads += static_cast<double>(d.read_count());
      h.disk_batches += static_cast<double>(d.batch_count());
      h.gc_stalls += static_cast<double>(d.gc_stall_count());
      h.disk_written += static_cast<double>(d.bytes_written());
      h.write_stalls += static_cast<double>(d.write_stall_count());
      h.pc_hits += static_cast<double>(host->page_cache().hits());
      h.pc_misses += static_cast<double>(host->page_cache().misses());
    }
    return h;
  }
};

// Simulated CPU of the run window, summed over every thread outside the
// lookbusy VMs: busy time, and cycles per category.
struct CpuUse {
  double busy_ns = 0;
  std::map<std::string, double> cycles;  // metric suffix -> cycles

  static const char* suffix(metrics::CycleCategory cat) {
    using C = metrics::CycleCategory;
    switch (cat) {
      case C::kClientApp: return "client_app";
      case C::kVirtioCopy: return "virtio_copy";
      case C::kVreadBufferCopy: return "vread_buffer_copy";
      case C::kVhostNet: return "vhost_net";
      case C::kGuestNetTx:
      case C::kGuestNetRx: return "guest_net";
      case C::kLoopDevice: return "loop_device";
      case C::kDiskRead: return "disk_read";
      case C::kDiskWrite: return "disk_write";
      case C::kRdma: return "rdma";
      case C::kVreadNet: return "vread_net";
      default: return "other";
    }
  }

  static CpuUse since(Bench& b, const metrics::CycleAccounting::Snapshot& s) {
    const metrics::CycleAccounting& acct = b.c->acct();
    CpuUse u;
    for (std::uint8_t i = 0; i < metrics::kNumCategories; ++i) {
      u.cycles[suffix(static_cast<metrics::CycleCategory>(i))] = 0;
    }
    for (metrics::ThreadId tid = 0; tid < acct.thread_count(); ++tid) {
      if (b.lookbusy.count(acct.thread_group(tid)) != 0) continue;
      const bool old = tid < s.busy.size();
      u.busy_ns += static_cast<double>(acct.thread_busy_time(tid) - (old ? s.busy[tid] : 0));
      for (std::uint8_t i = 0; i < metrics::kNumCategories; ++i) {
        const auto cat = static_cast<metrics::CycleCategory>(i);
        u.cycles[suffix(cat)] +=
            static_cast<double>(acct.thread_total(tid, cat) - (old ? s.cycles[tid][i] : 0));
      }
    }
    return u;
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Layer counters read after the run (daemon stats, registry families).
void layer_metrics(Bench& b, const HostCounters& h0, double cross_rack0, Metrics& m) {
  const HostCounters h1 = HostCounters::of(b);
  const RegistryView reg;
  double mount_hits = 0, mount_misses = 0, refreshes = 0;
  for (const std::string& host : b.hosts) {
    if (core::VReadDaemon* d = b.c->daemon(host)) {
      const core::DaemonStats s = d->stats_snapshot();
      mount_hits += static_cast<double>(s.mount_lookup_hits);
      mount_misses += static_cast<double>(s.mount_lookup_misses);
      refreshes += static_cast<double>(s.refreshes);
    }
  }
  m.emplace_back("mem.host_page_cache_hit_ratio",
                 ratio(h1.pc_hits - h0.pc_hits,
                       h1.pc_hits - h0.pc_hits + h1.pc_misses - h0.pc_misses));
  m.emplace_back("fs.mount_lookup_hit_ratio", ratio(mount_hits, mount_hits + mount_misses));
  m.emplace_back("fs.mount_refreshes", refreshes);
  m.emplace_back("hw.disk.read_mb", (h1.disk_read - h0.disk_read) / 1e6);
  m.emplace_back("hw.disk.reads", h1.disk_reads - h0.disk_reads);
  m.emplace_back("hw.disk.batches", h1.disk_batches - h0.disk_batches);
  m.emplace_back("hw.disk.gc_stalls", h1.gc_stalls - h0.gc_stalls);
  m.emplace_back("hw.disk.write_mb", (h1.disk_written - h0.disk_written) / 1e6);
  m.emplace_back("hw.disk.write_stalls", h1.write_stalls - h0.write_stalls);
  m.emplace_back("hw.net.cross_rack_mb",
                 (static_cast<double>(b.c->net().lan().cross_rack_bytes()) - cross_rack0) / 1e6);

  m.emplace_back("virt.shm.slot_waits", reg.counter("vread_shm_slot_waits_total"));
  m.emplace_back("virt.shm.ring_wait_p99_us",
                 static_cast<double>(reg.histogram("vread_shm_ring_wait_ns").percentile(99)) / 1e3);
  m.emplace_back("virt.shm.inflight_high", reg.gauge_high("vread_shm_inflight"));
  m.emplace_back("virt.shm.timeouts", reg.counter("vread_shm_timeouts_total"));

  m.emplace_back("core.lib.retries", reg.counter("vread_lib_retries_total"));
  m.emplace_back("core.lib.retries_exhausted", reg.counter("vread_lib_retries_exhausted_total"));
  m.emplace_back("core.qos.queue_depth_high", reg.gauge_high("vread_tenant_queue_depth"));
  m.emplace_back("core.qos.shed", reg.counter("vread_tenant_shed_total"));
  m.emplace_back("core.edf.late", reg.counter("vread_edf_dispatch_late_total"));
  const metrics::Histogram service = reg.histogram("vread_daemon_read_latency_ns");
  m.emplace_back("core.daemon.reads", reg.counter("vread_daemon_reads_total"));
  m.emplace_back("core.daemon.service_p50_us", static_cast<double>(service.percentile(50)) / 1e3);
  m.emplace_back("core.daemon.service_p99_us", static_cast<double>(service.percentile(99)) / 1e3);
  m.emplace_back("core.daemon.remote_reads", reg.counter("vread_daemon_remote_reads_total"));
  const double cache_hits = reg.counter("vread_daemon_cache_hits_total");
  m.emplace_back("core.cache.hit_ratio",
                 ratio(cache_hits, cache_hits + reg.counter("vread_daemon_cache_misses_total")));
  m.emplace_back("core.cache.evictions", reg.counter("vread_daemon_cache_evictions_total"));
  const double co_hits = reg.counter("vread_coalesce_hits_total");
  m.emplace_back("core.coalesce.hit_ratio",
                 ratio(co_hits, co_hits + reg.counter("vread_coalesce_misses_total")));
  m.emplace_back("core.coalesce.fill_mb", reg.counter("vread_coalesce_fill_bytes_total") / 1e6);
  m.emplace_back("core.peer.dir_hit_ratio", ratio(reg.counter("vread_peercache_dir_hits_total"),
                                                  reg.counter("vread_peercache_lookups_total")));
  m.emplace_back("core.peer.fetch_mb", reg.counter("vread_peercache_fetch_bytes_total") / 1e6);
  m.emplace_back("core.peer.fallbacks", reg.counter("vread_peercache_fallbacks_total"));
  m.emplace_back("core.peer.stale_rejects", reg.counter("vread_peercache_stale_rejects_total"));

  m.emplace_back("hdfs.reads_vread", reg.counter("vread_client_reads_total", "path", "vread"));
  m.emplace_back("hdfs.reads_socket", reg.counter("vread_client_reads_total", "path", "socket"));
  m.emplace_back("hdfs.fallback_reads", reg.counter("vread_client_fallback_reads_total"));
  const double vfd_hits = reg.counter("vread_client_vfd_cache_hits_total");
  m.emplace_back("hdfs.vfd_hit_ratio",
                 ratio(vfd_hits, vfd_hits + reg.counter("vread_client_vfd_cache_misses_total")));
  const double launched = reg.counter("vread_hedge_launched_total");
  m.emplace_back("hdfs.hedge.launched", launched);
  m.emplace_back("hdfs.hedge.win_ratio", ratio(reg.counter("vread_hedge_wins_total"), launched));
  m.emplace_back("hdfs.hedge.wasted_mb", reg.counter("vread_hedge_wasted_bytes_total") / 1e6);
}

// Per-read attribution from the tracer: copies per delivered byte and the
// mean time per read in each span kind, plus the unattributed residual.
void trace_metrics(Metrics& m) {
  const trace::RunSummary s = trace::aggregate(trace::tracer());
  const double reads = static_cast<double>(std::max<std::size_t>(s.reads.size(), 1));
  const auto per_read_ms = [reads](sim::SimTime t) {
    return static_cast<double>(t) / 1e6 / reads;
  };
  const trace::ReadBreakdown& t = s.total;
  m.emplace_back("trace.copies_per_byte", t.copies());
  m.emplace_back("trace.sync_wait_ms", per_read_ms(t.sync_wait));
  m.emplace_back("trace.disk_ms", per_read_ms(t.disk));
  m.emplace_back("trace.transport_ms", per_read_ms(t.transport));
  m.emplace_back("trace.residual_ms",
                 per_read_ms(t.elapsed() - t.sync_wait - t.disk - t.transport));
  m.emplace_back("trace.retries", t.retries);
  m.emplace_back("trace.fallbacks", t.fallbacks);
}

// ---- one workload run ------------------------------------------------------

struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bad_bytes = 0;
  std::uint64_t digest = 0;
};

Outcome run_workload(const Workload& w, const Args& args) {
  Bench b;
  b.args = args;
  SetupTimes st;
  w.setup(b, st);
  Outcome o;
  Metrics& m = o.metrics;
  m.emplace_back("setup_s", st.topology + st.preload + st.enable);
  m.emplace_back("setup.topology_s", st.topology);
  m.emplace_back("setup.preload_s", st.preload);
  m.emplace_back("setup.enable_vread_s", st.enable);
  if (args.setup_only) {
    m.emplace_back("peak_rss_mb", peak_rss_mb());
    return o;
  }

  sim::Simulation& sim = b.sim();
  sim.enable_dispatch_digest();
  const HostCounters h0 = HostCounters::of(b);
  const double cross_rack0 = static_cast<double>(b.c->net().lan().cross_rack_bytes());
  const metrics::CycleAccounting::Snapshot cpu0 = b.c->acct().snapshot();
  const std::uint64_t events0 = sim.events_dispatched();
  if (args.trace) {
    trace::tracer().clear();
    trace::tracer().enable(sim);
  }
  b.run_begin = sim.now();
  const Clock::time_point w0 = Clock::now();
  b.c->run_job(w.run(&b));
  const double wall_s = seconds_since(w0) - b.verify_s;
  trace::tracer().disable();

  const std::uint64_t events = sim.events_dispatched() - events0;
  const std::size_t attempted = b.lat.size();
  o.attempted = attempted;
  o.failed = b.failed;
  o.bad_bytes = b.bad_bytes;
  o.digest = sim.dispatch_digest();
  const int tail = tail_per_mille(attempted);
  const sim::SimTime read_window = b.last_done - std::min(b.first_start, b.last_done);
  const CpuUse cpu = CpuUse::since(b, cpu0);
  const double io_bytes = static_cast<double>(b.read_bytes + b.write_bytes);

  m.emplace_back("read_mbps", metrics::throughput_mbps(b.read_bytes, read_window));
  m.emplace_back("read_p50_ms", sim::to_millis(nearest_rank(b.lat, 500)));
  m.emplace_back("read_tail_ms", sim::to_millis(nearest_rank(b.lat, tail)));
  m.emplace_back("cpu_ms_per_gb", ratio(cpu.busy_ns / 1e6, io_bytes / (1024.0 * kMiB)));
  m.emplace_back("wall_s", wall_s);
  m.emplace_back("peak_rss_mb", peak_rss_mb());
  m.emplace_back("workload.write_mbps", metrics::throughput_mbps(b.write_bytes, b.write_elapsed));
  m.emplace_back("workload.read_fail_ratio",
                 ratio(static_cast<double>(b.failed), static_cast<double>(attempted)));
  m.emplace_back("workload.read_tail_pct", tail / 10.0);
  m.emplace_back("workload.backlog_ratio",
                 b.arrival_span > 0 ? static_cast<double>(b.last_done - b.run_begin) /
                                          static_cast<double>(b.arrival_span)
                                    : 0.0);
  m.emplace_back("sim.events", static_cast<double>(events));
  // 52 bits, so the JSON number is exact; the full digest is in "digest".
  m.emplace_back("sim.dispatch_digest", static_cast<double>(o.digest >> 12));
  m.emplace_back("sim.host_ns_per_event", ratio(wall_s * 1e9, static_cast<double>(events)));
  m.emplace_back("gen.slot_wait_p99_ms", sim::to_millis(nearest_rank(b.slot_wait, 990)));
  for (const auto& [suffix, cycles] : cpu.cycles) {
    m.emplace_back("hw.cpu." + suffix + "_cycles_per_byte", ratio(cycles, io_bytes));
  }
  layer_metrics(b, h0, cross_rack0, m);
  if (args.trace) trace_metrics(m);
  return o;
}

// ---- host-time layer probes ------------------------------------------------

volatile std::uint64_t g_sink = 0;  // keeps probed results observable

// Median over 5 repetitions of ns per byte, each repetition repeating `op`
// until `min_s` host seconds passed.
template <typename Op>
double probe(double min_s, std::uint64_t bytes, Op op) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t iters = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0;
    do {
      op(iters++);
      elapsed = seconds_since(t0);
    } while (elapsed < min_s);
    reps.push_back(elapsed * 1e9 / static_cast<double>(iters * bytes));
  }
  std::sort(reps.begin(), reps.end());
  return reps[2];
}

Metrics run_probes(double min_s) {
  Metrics m;
  const std::vector<std::pair<std::string, std::uint64_t>> sizes = {
      {"8k", 8 * kKiB}, {"256k", 256 * kKiB}, {"1m", kMiB}};
  for (const auto& [tag, n] : sizes) {
    m.emplace_back("mem.fill_ns_per_byte." + tag, probe(min_s, n, [n = n](std::uint64_t i) {
                     g_sink = g_sink ^ mem::Buffer::deterministic(i, i * n, n)[n - 1];
                   }));
    mem::Buffer src = mem::Buffer::deterministic(1, 0, 2 * n);
    m.emplace_back("mem.checksum_ns_per_byte." + tag,
                   probe(min_s, n, [&src, n = n](std::uint64_t i) {
                     src[i % n] ^= 1;  // keeps the checksum from being hoisted
                     g_sink = g_sink ^ src.checksum();
                   }));
    m.emplace_back("mem.slice_ns_per_byte." + tag,
                   probe(min_s, n, [&src, n = n](std::uint64_t i) {
                     g_sink = g_sink ^ src.slice(i % n, n)[0];
                   }));
    const mem::Buffer piece = src.slice(0, n);
    mem::Buffer acc;
    m.emplace_back("mem.append_ns_per_byte." + tag,
                   probe(min_s, n, [&acc, &piece](std::uint64_t) {
                     if (acc.size() >= 8 * kMiB) acc = mem::Buffer();
                     acc.append(piece);
                     g_sink = g_sink ^ acc.size();
                   }));
  }
  // The daemon caches kStreamChunk (256 KiB) pieces.
  constexpr std::uint64_t kChunk = 256 * kKiB;
  const mem::Buffer chunk = mem::Buffer::deterministic(2, 0, kChunk);
  std::vector<std::string> blocks;
  for (int i = 0; i < 1024; ++i) blocks.push_back(numbered("blk_", i));
  {
    core::BlockCache cache(64 * kMiB, "probe");
    m.emplace_back("core.cache.insert_ns_per_byte",
                   probe(min_s, kChunk, [&](std::uint64_t i) {
                     g_sink = g_sink ^ cache.insert("dn", blocks[i % blocks.size()], 0, chunk);
                   }));
  }
  {
    core::BlockCache cache(64 * kMiB, "probe");
    for (int i = 0; i < 64; ++i) cache.insert("dn", blocks[i], 0, chunk);
    m.emplace_back("core.cache.lookup_ns_per_byte",
                   probe(min_s, kChunk, [&](std::uint64_t i) {
                     g_sink = g_sink ^ cache.lookup("dn", blocks[i % 64], 0, kChunk).size();
                   }));
  }
  return m;
}

// ---- output ----------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const Args& args, const Outcome& o) {
  std::cout << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? "true" : "false")
            << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
            << ", \"bad_bytes\": " << o.bad_bytes;
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(o.digest));
  std::cout << ", \"digest\": \"" << digest << "\", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << o.metrics[i].first
              << "\": " << number(o.metrics[i].second);
  }
  std::cout << "}}" << std::endl;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "vread_benchmark: " << why << "\n"
            << "usage: vread_benchmark --workload W --seed S [--trace] [--smoke]\n"
            << "                       [--setup-only] [--rate R] [--span S]\n"
            << "       vread_benchmark --probes SECONDS\n"
            << "workloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--trace") {
        a.trace = true;
      } else if (flag == "--smoke") {
        a.smoke = true;
      } else if (flag == "--setup-only") {
        a.setup_only = true;
      } else if (flag == "--rate") {
        a.rate = std::stod(value());
      } else if (flag == "--span") {
        a.span_s = std::stod(value());
      } else if (flag == "--probes") {
        a.probe_seconds = std::stod(value());
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.probe_seconds <= 0 && a.workload.empty()) usage("--workload or --probes required");
  if (a.rate <= 0) usage("--rate must be positive");
  return a;
}

}  // namespace
}  // namespace vread::bm

int main(int argc, char** argv) {
  using namespace vread::bm;
  const Args args = parse(argc, argv);
  if (args.probe_seconds > 0) {
    Outcome o;
    o.metrics = run_probes(args.probe_seconds);
    print_json(args, o);
    return 0;
  }
  for (const Workload& w : workloads()) {
    if (args.workload != w.name) continue;
    const Outcome o = run_workload(w, args);
    print_json(args, o);
    return o.bad_bytes == 0 ? 0 : 1;
  }
  usage("unknown workload " + args.workload);
}
