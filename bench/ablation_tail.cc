// Ablation: tail-latency engineering (DESIGN.md §16).
//
// Production SSDs do not serve at constant time: background GC blocks the
// device for whole windows, and a queue that was healthy at p50 convoys
// behind the stall. This bench measures the two client/daemon-side
// defenses against that tail on the oversubscribed racked bed (2.5 Gbps
// tenant uplinks, TCP transport, per-stream client VMs, 4 workers):
//
//   1. device microcheck — serialized reads against one hw::Disk, seeded
//      GC on vs off, exact sorted-sample percentiles: the model itself
//      produces the spike (and nothing else changes: off == pre-model);
//   2. hedged reads — reader fleet doing seeded random preads against two
//      replica hosts whose GC windows are decorrelated by the per-host
//      seed fold; arms: variability on with hedging off/on, plus a calm
//      control (variability off, hedging on). Gates: hedging cuts the
//      fleet p999 >= 3x and the losing legs cost < 5% extra bytes;
//   3. EDF lane — the same seeded, exactly-EDF-feasible deadline workload
//      drained at the same pace through the QoS scheduler with the lane
//      off (FIFO) and on: equal throughput by construction, the lane only
//      changes who goes first. Gate: EDF meets strictly more deadlines.
//
// Latencies are exact sorted-sample percentiles measured at the client
// (not histogram buckets); every stream verifies every byte against the
// deterministic file contents, so a hedge race that corrupted or
// duplicated data would fail the run, not just a unit test.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/qos.h"
#include "core/vread_daemon.h"
#include "hdfs/dfs_client.h"
#include "hw/disk.h"
#include "mem/buffer.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/time.h"
#include "virt/shm_channel.h"

namespace vread::bench {
namespace {

constexpr std::uint64_t kFileBytes = 64ULL * 1024 * 1024;  // 16 x 4 MiB blocks
constexpr std::uint64_t kSeed = 1303;
constexpr std::uint64_t kReadBytes = 128 * 1024;
constexpr std::size_t kReaders = 3;
constexpr std::size_t kReadsPerClient = 1200;
// GC geometry: long windows at a low duty cycle. The duty keeps the
// chance that BOTH replicas stall at once below the p999 rank, while the
// window length (plus the convoy it leaves behind) dwarfs a healthy read
// — the regime where a second leg to the other replica saves the tail.
constexpr std::uint64_t kGcSeed = 29;
constexpr sim::SimTime kGcPeriod = sim::ms(1000);
constexpr sim::SimTime kGcDuration = sim::ms(20);

// Exact sorted-sample percentile (nearest rank). The window stats in the
// observability plane answer from power-of-two buckets; a 3x gate needs
// the real order statistic.
sim::SimTime pct(std::vector<sim::SimTime> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

double to_ms(sim::SimTime t) { return static_cast<double>(t) / 1e6; }

// ---- arm 1: device-level microcheck -------------------------------------

sim::Task device_reads(sim::Simulation* sim, hw::Disk* d, std::size_t n,
                       std::vector<sim::SimTime>* lat) {
  for (std::size_t i = 0; i < n; ++i) {
    const sim::SimTime t0 = sim->now();
    co_await d->read(kReadBytes, {});
    lat->push_back(sim->now() - t0);
    co_await sim->delay(sim::us(500));  // mid load, not saturation
  }
}

std::vector<sim::SimTime> run_device(bool variability) {
  sim::Simulation sim;
  hw::Disk d(sim, {});
  hw::Disk::Variability v;
  v.enabled = variability;
  v.seed = kGcSeed;
  v.gc_period = sim::ms(20);
  v.gc_duration = sim::ms(1);
  d.configure_variability(v);
  std::vector<sim::SimTime> lat;
  sim.spawn(device_reads(&sim, &d, 4000, &lat));
  sim.run();
  return lat;
}

// ---- arm 2: hedged reads on the racked bed ------------------------------

// SplitMix64: seeded offset draws, no process-global RNG state.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One reader: seeded random aligned preads, per-read latency recorded,
// every byte verified. Free function with by-value strings (spawned
// coroutines start lazily; references to temporaries would dangle).
sim::Task reader_stream(Cluster* c, std::string vm, std::uint64_t stream_seed,
                        std::vector<sim::SimTime>* lat, std::uint64_t* bad_bytes,
                        sim::Latch* done) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await c->client(vm)->open("/data", in);
  for (std::size_t i = 0; i < kReadsPerClient; ++i) {
    const std::uint64_t slots = kFileBytes / kReadBytes;
    const std::uint64_t off = (mix64(stream_seed, i) % slots) * kReadBytes;
    // Seeded think time keeps the replica devices at mid load (~35%
    // utilization): at saturation the queueing tail swamps the GC tail on
    // BOTH hosts and no second leg can outrun it.
    co_await c->sim().delay(
        sim::us(2500) + mix64(stream_seed ^ 0x7468696eULL, i) % sim::us(1000));
    // Random access: sequential readahead would only keep the device busy
    // prefetching bytes nobody reads, inflating the queueing tail.
    hdfs::ReadRequest req;
    req.offset = off;
    req.len = kReadBytes;
    req.readahead = false;
    hdfs::ReadResult res;
    const sim::SimTime t0 = c->sim().now();
    co_await in->read(req, res);
    lat->push_back(c->sim().now() - t0);
    if (res.data.size() != kReadBytes ||
        res.data.checksum() !=
            mem::Buffer::deterministic(kSeed, off, kReadBytes).checksum()) {
      *bad_bytes += kReadBytes;
    }
  }
  co_await in->close();
  done->count_down();
}

sim::Task spawn_readers(Cluster* c, std::vector<std::vector<sim::SimTime>>* lat,
                        std::uint64_t* bad_bytes) {
  sim::Latch done(c->sim(), kReaders);
  for (std::size_t i = 0; i < kReaders; ++i) {
    c->sim().spawn(reader_stream(c, "c" + std::to_string(i + 1),
                                 mix64(kSeed, 1000 + i), &(*lat)[i], bad_bytes,
                                 &done));
  }
  co_await done.wait();
}

// host1/host2 hold every block (two-way replication); each reader runs on
// its own host and client VM. A shared client VM would serialize all
// streams through one channel and one daemon — per-stream VMs are what
// make the wire and the replica disks the bottleneck chain.
std::unique_ptr<Cluster> make_bed(bool variability, bool hedge) {
  ClusterConfig cfg;
  cfg.block_size = 4ULL * 1024 * 1024;
  cfg.cores_per_host = 8;
  cfg.link.bw_gbps = 2.5;
  // Small host page cache: repeat reads genuinely hit the device, where
  // GC lives. The default would absorb the working set and the stall.
  cfg.page_cache_bytes = 4ULL * 1024 * 1024;
  cfg.racks.hosts_per_rack = 3;
  auto c = std::make_unique<Cluster>(cfg);
  c->add_host("host1");
  c->add_host("host2");
  c->add_vm("host1", "nn");
  c->create_namenode("nn");
  c->add_datanode("host1", "datanode1");
  c->add_datanode("host2", "datanode2");
  for (std::size_t i = 0; i < kReaders; ++i) {
    std::string host = "host";
    host += std::to_string(i + 3);
    std::string vm = "c";
    vm += std::to_string(i + 1);
    c->add_host(host);
    c->add_vm(host, vm);
    c->add_client(vm);
  }
  c->preload_file("/data", kFileBytes, kSeed, {{"datanode1", "datanode2"}});
  core::DaemonConfig dc;
  dc.workers = 4;
  dc.transport = core::Transport::kTcp;
  dc.cache_bytes = 0;  // no daemon cache: every miss reaches the device
  dc.disk.enabled = variability;
  dc.disk.seed = kGcSeed;  // per-host FNV fold decorrelates the replicas
  dc.disk.gc_period = kGcPeriod;
  dc.disk.gc_duration = kGcDuration;
  c->enable_vread(dc);
  if (hedge) {
    hdfs::HedgeConfig hc;
    hc.enabled = true;
    // Latency-sensitive tenant posture: fire at the route's p90 and never
    // wait a whole GC window out, even on a cold route.
    hc.quantile = 90.0;
    hc.max_delay = sim::ms(6);
    for (std::size_t i = 0; i < kReaders; ++i) {
      c->client("c" + std::to_string(i + 1))->set_hedge(hc);
    }
  }
  c->drop_all_caches();
  return c;
}

struct FleetOutcome {
  std::vector<sim::SimTime> lat;  // all streams pooled
  std::uint64_t launched = 0;
  std::uint64_t wins = 0;
  std::uint64_t averted = 0;
  std::uint64_t wasted_bytes = 0;
  double extra_pct = 0.0;  // loser-leg bytes over verified payload
  bool ok = true;
};

FleetOutcome run_fleet(bool variability, bool hedge) {
  auto c = make_bed(variability, hedge);
  FleetOutcome r;
  std::uint64_t bad = 0;
  std::vector<std::vector<sim::SimTime>> lat(kReaders);
  c->run_job(spawn_readers(c.get(), &lat, &bad));
  for (std::size_t i = 0; i < kReaders; ++i) {
    r.lat.insert(r.lat.end(), lat[i].begin(), lat[i].end());
    std::string vm = "c";
    vm += std::to_string(i + 1);
    const hdfs::DfsClient* cl = c->client(vm);
    r.launched += cl->hedge_launched();
    r.wins += cl->hedge_wins();
    r.averted += cl->hedge_averted();
    r.wasted_bytes += cl->hedge_wasted_bytes();
  }
  const double payload =
      static_cast<double>(kReaders * kReadsPerClient * kReadBytes);
  r.extra_pct = 100.0 * static_cast<double>(r.wasted_bytes) / payload;
  r.ok = bad == 0;
  return r;
}

// ---- arm 3: EDF lane vs FIFO --------------------------------------------

constexpr std::size_t kEdfRequests = 256;
constexpr sim::SimTime kEdfService = sim::us(100);

// Deadline-bearing requests drained one per service slot, arrival order
// seeded-shuffled. Deadlines are (rank+1) * service: exactly feasible
// under EDF, so every miss in the FIFO arm is the dispatch ORDER's fault
// and nothing else — both arms do identical work at an identical pace.
sim::Task drain_deadlines(sim::Simulation* sim, core::QosScheduler* s,
                          std::size_t n, int* met) {
  for (std::size_t i = 0; i < n; ++i) {
    co_await sim->delay(kEdfService);
    core::QosScheduler::Item item;
    co_await s->next(item);
    if (sim->now() <= item.req.deadline) ++(*met);
  }
}

struct EdfOutcome {
  int met = 0;
  std::uint64_t reordered = 0;
};

EdfOutcome run_edf(bool edf) {
  sim::Simulation sim;
  core::QosConfig cfg;
  cfg.edf = edf;
  cfg.max_queue = 0;  // the whole burst queues; admission is not under test
  core::QosScheduler s(sim, cfg, edf ? "ablation-tail-edf" : "ablation-tail-fifo");
  std::vector<std::size_t> order(kEdfRequests);
  for (std::size_t i = 0; i < kEdfRequests; ++i) order[i] = i;
  for (std::size_t i = kEdfRequests - 1; i > 0; --i) {  // seeded Fisher-Yates
    std::swap(order[i], order[mix64(kSeed, i) % (i + 1)]);
  }
  for (std::size_t rank : order) {
    virt::ShmRequest req;
    req.op = static_cast<int>(core::VReadOp::kRead);
    req.len = 64 * 1024;
    req.deadline = static_cast<sim::SimTime>(rank + 1) * kEdfService;
    if (!s.submit("tenant", {req, nullptr})) std::abort();
  }
  EdfOutcome r;
  sim.spawn(drain_deadlines(&sim, &s, kEdfRequests, &r.met));
  sim.run();
  r.reordered = s.edf_reordered();
  return r;
}

}  // namespace
}  // namespace vread::bench

int main(int argc, char** argv) {
  using namespace vread::bench;
  vread::metrics::print_banner(
      "Ablation: tail-latency engineering",
      "seeded SSD variability, hedged reads, deadline-aware EDF lane");
  BenchReport report("ablation_tail");
  report.param("file_bytes", kFileBytes)
      .param("read_bytes", kReadBytes)
      .param("readers", static_cast<std::uint64_t>(kReaders))
      .param("reads_per_client", static_cast<std::uint64_t>(kReadsPerClient))
      .param("gc_period_ms", to_ms(kGcPeriod))
      .param("gc_duration_ms", to_ms(kGcDuration))
      .param("workers", static_cast<std::uint64_t>(4))
      .param("link_gbps", 2.5);

  bool all_ok = true;
  {
    std::cout << "device microcheck (serialized reads, exact percentiles):\n";
    const auto off = run_device(false);
    const auto on = run_device(true);
    vread::metrics::TablePrinter t(
        {"variability", "p50 (ms)", "p99 (ms)", "p999 (ms)"});
    t.add_row({"off", vread::metrics::Cell(to_ms(pct(off, 50))),
               vread::metrics::Cell(to_ms(pct(off, 99))),
               vread::metrics::Cell(to_ms(pct(off, 99.9)))});
    t.add_row({"on", vread::metrics::Cell(to_ms(pct(on, 50))),
               vread::metrics::Cell(to_ms(pct(on, 99))),
               vread::metrics::Cell(to_ms(pct(on, 99.9)))});
    t.print();
    report.metric("device_p999_ms_off", to_ms(pct(off, 99.9)), "ms", "lower");
    report.metric("device_p999_ms_on", to_ms(pct(on, 99.9)), "ms", "higher");
    // The model must actually produce a spike — and only when enabled.
    if (pct(on, 99.9) <= pct(off, 99.9) || pct(on, 50) < pct(off, 50)) {
      all_ok = false;
    }
    std::cout << "\n";
  }
  {
    std::cout << "hedged reads, " << kReaders << " streams x "
              << kReadsPerClient << " random 128 KiB preads:\n";
    FleetOutcome base = run_fleet(true, false);
    FleetOutcome hedged = run_fleet(true, true);
    FleetOutcome calm = run_fleet(false, true);
    all_ok = all_ok && base.ok && hedged.ok && calm.ok;
    vread::metrics::TablePrinter t({"arm", "p50 (ms)", "p99 (ms)", "p999 (ms)",
                                    "hedged%", "wins", "averted", "extra%"});
    auto row = [&](const char* name, const FleetOutcome& o) {
      const double total = static_cast<double>(kReaders * kReadsPerClient);
      t.add_row({name, vread::metrics::Cell(to_ms(pct(o.lat, 50))),
                 vread::metrics::Cell(to_ms(pct(o.lat, 99))),
                 vread::metrics::Cell(to_ms(pct(o.lat, 99.9))),
                 vread::metrics::Cell(100.0 * static_cast<double>(o.launched) /
                                      total),
                 std::to_string(o.wins), std::to_string(o.averted),
                 vread::metrics::Cell(o.extra_pct)});
    };
    row("gc, hedge off", base);
    row("gc, hedge on", hedged);
    row("calm, hedge on", calm);
    t.print();
    const double cut = to_ms(pct(hedged.lat, 99.9)) > 0
                           ? to_ms(pct(base.lat, 99.9)) /
                                 to_ms(pct(hedged.lat, 99.9))
                           : 0.0;
    report.metric("fleet_p999_ms_hedge_off", to_ms(pct(base.lat, 99.9)), "ms",
                  "higher");
    report.metric("fleet_p999_ms_hedge_on", to_ms(pct(hedged.lat, 99.9)), "ms",
                  "lower");
    report.metric("fleet_p999_cut", cut, "x", "higher", 3.0);
    report.metric("fleet_p99_ms_hedge_off", to_ms(pct(base.lat, 99)), "ms",
                  "higher");
    report.metric("fleet_p99_ms_hedge_on", to_ms(pct(hedged.lat, 99)), "ms",
                  "lower");
    report.metric("hedge_extra_bytes_pct", hedged.extra_pct, "%", "lower", 5.0);
    report.metric("hedge_wins", static_cast<double>(hedged.wins), "count",
                  "higher");
    report.metric("calm_extra_bytes_pct", calm.extra_pct, "%", "lower");
    // Gates: >= 3x off the p999 for < 5% extra bytes, with the race
    // actually exercised (wins, not just launches), and the calm control
    // near-free (an adaptive delay that hedges healthy reads is broken).
    if (cut < 3.0 || hedged.extra_pct >= 5.0 || hedged.wins == 0 ||
        calm.extra_pct >= 2.5) {
      all_ok = false;
    }
    std::cout << "\n";
  }
  {
    std::cout << "EDF lane vs FIFO, " << kEdfRequests
              << " shuffled exactly-feasible deadlines:\n";
    EdfOutcome fifo = run_edf(false);
    EdfOutcome edf = run_edf(true);
    vread::metrics::TablePrinter t({"lane", "met", "missed", "reordered"});
    t.add_row({"fifo", std::to_string(fifo.met),
               std::to_string(static_cast<int>(kEdfRequests) - fifo.met),
               std::to_string(fifo.reordered)});
    t.add_row({"edf", std::to_string(edf.met),
               std::to_string(static_cast<int>(kEdfRequests) - edf.met),
               std::to_string(edf.reordered)});
    t.print();
    report.metric("edf_deadlines_met", static_cast<double>(edf.met), "count",
                  "higher", static_cast<double>(kEdfRequests));
    report.metric("fifo_deadlines_met", static_cast<double>(fifo.met), "count",
                  "lower");
    report.metric("edf_reordered", static_cast<double>(edf.reordered), "count",
                  "higher");
    // Equal pace, equal work: the lane must convert order into deadlines.
    if (edf.met <= fifo.met || edf.met != static_cast<int>(kEdfRequests)) {
      all_ok = false;
    }
  }

  std::cout << (all_ok ? "\ncontent verified on every stream, gates met\n"
                       : "\nGATE FAILED (content mismatch, missed p999/extra-"
                         "bytes targets, or EDF not ahead of FIFO)\n");
  std::cout << "Expected shape: seeded GC windows put whole-ms stalls under\n"
               "~0.1% of reads and the convoy behind them; a second leg to\n"
               "the decorrelated replica fires only past the route's p90, so\n"
               "the p999 collapses to the hedge path while losing legs are\n"
               "cancelled at the next chunk and cost a few percent in bytes.\n"
               "The EDF lane re-orders only inside the tenant's DRR share —\n"
               "same throughput, strictly more deadlines met.\n";
  report.maybe_write(argc, argv);
  return all_ok ? 0 : 1;
}
