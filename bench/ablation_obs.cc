// Ablation: the cluster observability plane (DESIGN.md §14).
//
// Two arms:
//   1. overhead arm — the 256-host FlowSim cluster, obs-off vs obs-on
//      (5 ms scrape cadence, per-rack sources, block top-k, flight
//      recorder on the shared selector). Three gates, all exit-1:
//        * bit identity — the (time, seq) dispatch digest and every model
//          output must be IDENTICAL with the plane attached;
//        * wall overhead < 3 % (median of the on/off ratios of many short
//          interleaved pairs, so machine drift and one-sided noise
//          bursts cancel; wall numbers stay OUT of the JSON report);
//        * memory — the plane's retained bytes (rings + summaries +
//          scrape state) must stay under 5 % of the process peak RSS.
//   2. episode arm — a seeded ToR-saturation episode on the detailed sim:
//      two racks, tenant VMs in rack 0, the only replica in rack 1 behind
//      a 2.5 Gbps oversubscribed uplink. A light warmup phase, then a
//      flood tenant joins: cross-rack p99 spikes, the read-latency SLO
//      burn-rate alert fires, admission control sheds, and the bench
//      proves the whole episode is reconstructable from the
//      vread-timeline/1 export alone (parsed back with obs::json).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/flowsim.h"
#include "common.h"
#include "core/qos.h"
#include "obs/json.h"
#include "obs/plane.h"
#include "obs/timeline.h"

namespace vread::bench {
namespace {

using cluster::FlowSimConfig;
using cluster::FlowSimResult;
using cluster::RoutePolicy;

// ---- arm 1: 256-host overhead/bit-identity arm ----

// Reads of the full-size run, whose outputs are reported, and of each
// run of a timing pair.
constexpr std::uint64_t kScaleReads = 800'000;
constexpr std::uint64_t kPairReads = 100'000;
// Timing pairs. Host speed on a shared machine drifts over seconds, so a
// short pair's two runs share one speed far more often than a long pair's
// do; many pairs then make the median ratio stable (spread about 0.3 %
// against 3 % for eight full-size pairs, measured on a shared 4-core VM)
// at the same wall cost.
constexpr int kPairs = 56;

FlowSimConfig scale_config(std::uint64_t reads) {
  FlowSimConfig cfg;
  cfg.topo.racks = 16;
  cfg.topo.hosts_per_rack = 16;  // 256 hosts
  cfg.topo.vms_per_host = 2;     // 512 closed-loop readers
  cfg.topo.oversubscription = 4.0;
  cfg.route.policy = RoutePolicy::kReplicaAware;
  cfg.blocks = 4096;
  cfg.block_bytes = 256 * 1024;
  cfg.reads = reads;
  cfg.dispatch_digest = true;
  return cfg;
}

// The plane as the arm attaches it: flow-level sources only, scraped
// every 10 ms, the last 1.28 s of history per series.
obs::ObsConfig plane_config() {
  obs::ObsConfig ocfg;
  ocfg.interval = vread::sim::ms(10);
  ocfg.ring = 128;
  ocfg.scrape_registry = false;
  return ocfg;
}

struct TimedRun {
  FlowSimResult result;
  double wall_s = 0;
};

TimedRun run_scale(std::uint64_t reads, obs::TimeSeriesRecorder* rec,
                   obs::FlightRecorder* fr) {
  FlowSimConfig cfg = scale_config(reads);
  cfg.obs = rec;
  cfg.flight = fr;
  TimedRun t;
  const auto w0 = std::chrono::steady_clock::now();
  t.result = cluster::run_flowsim(cfg);
  t.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - w0).count();
  return t;
}

bool same_outputs(const FlowSimResult& a, const FlowSimResult& b) {
  return a.sim_seconds == b.sim_seconds && a.reads == b.reads && a.bytes == b.bytes &&
         a.cross_rack_bytes == b.cross_rack_bytes &&
         a.chosen_same_host == b.chosen_same_host &&
         a.chosen_same_rack == b.chosen_same_rack &&
         a.chosen_cross_rack == b.chosen_cross_rack && a.epochs == b.epochs &&
         a.events_dispatched == b.events_dispatched &&
         a.dispatch_digest == b.dispatch_digest;
}

std::size_t peak_rss_bytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // linux: KiB
}

// ---- arm 2: seeded ToR-saturation episode on the detailed sim ----

constexpr std::uint64_t kEpisodeFileBytes = 24ULL * 1024 * 1024;
constexpr std::uint64_t kEpisodeSeed = 2077;
constexpr std::uint64_t kEpisodeChunk = 256 * 1024;

// Circular positional reads until `deadline`, starting after `start_at`
// of simulated delay (the flood tenant joins mid-run — that delay IS the
// episode boundary). Free function: spawned coroutines must not be
// lambdas.
sim::Task episode_stream(Cluster* c, std::string vm, std::uint64_t start,
                         std::uint64_t chunk, sim::SimTime start_at,
                         sim::SimTime deadline, bool* ok) {
  if (start_at > 0) co_await c->sim().delay(start_at);
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await c->client(vm)->open("/data", in);
  std::uint64_t off = start % kEpisodeFileBytes;
  while (c->sim().now() < deadline) {
    const std::uint64_t n = std::min(chunk, kEpisodeFileBytes - off);
    mem::Buffer b;
    co_await in->pread(off, n, b);
    if (b.size() != n ||
        b.checksum() != mem::Buffer::deterministic(kEpisodeSeed, off, n).checksum()) {
      *ok = false;
    }
    off = (off + n) % kEpisodeFileBytes;
  }
  co_await in->close();
}

sim::Task idle(Cluster* c, sim::SimTime t) { co_await c->sim().delay(t); }

struct EpisodeOutcome {
  bool ok = true;
  std::uint64_t sheds = 0;
  std::size_t alerts = 0;
  std::uint64_t max_p99_ns = 0;    // latency series of host1 (the tenants' daemon)
  std::uint64_t quiet_p99_ns = 0;  // same series, pre-flood window
  std::size_t rollup_series = 0;
  std::size_t shed_flight_events = 0;
  bool shed_near_alert = false;
  sim::SimTime first_alert = 0;
  std::string timeline_path;
};

EpisodeOutcome run_episode() {
  EpisodeOutcome out;

  ClusterConfig cfg;
  cfg.freq_ghz = 2.0;
  cfg.cores_per_host = 8;
  cfg.block_size = 4ULL * 1024 * 1024;
  cfg.link.bw_gbps = 2.5;  // slow LAN: the wire is the bottleneck
  cfg.racks = hw::Lan::RackConfig{
      .hosts_per_rack = 2,
      .uplink = {.bw_gbps = 2.5, .propagation = sim::us(5)},
      .oversubscription = 4.0};
  Cluster c(cfg);
  c.add_host("host1");  // rack 0: readers
  c.add_host("host2");  // rack 0
  c.add_host("host3");  // rack 1: the only replica lives here
  c.add_host("host4");  // rack 1
  c.add_vm("host1", "nn");
  c.create_namenode("nn");
  c.add_datanode("host3", "dn-far");
  const std::vector<std::string> tenants = {"steady", "flood"};
  for (const std::string& t : tenants) {
    c.add_vm("host1", t);
    c.add_client(t);
  }
  c.preload_file("/data", kEpisodeFileBytes, kEpisodeSeed, {{"dn-far"}});

  core::DaemonConfig dc;
  dc.transport = core::VReadDaemon::Transport::kTcp;
  dc.direct_read = true;  // every read pays the cross-rack wire
  dc.cache_bytes = 0;
  dc.workers = 4;        // pool = 4 x 2 ports; concurrent fetches share the uplink
  dc.qos.max_queue = 3;  // tight admission: the flood must shed
  for (const std::string& t : tenants) dc.qos.shm_outstanding[t] = 16;
  c.enable_vread(dc);

  obs::ObsConfig ocfg;
  ocfg.interval = sim::ms(10);
  ocfg.latency_target_ns = 20'000'000;  // 20 ms read-latency SLO
  obs::SloConfig scfg;
  scfg.long_window = sim::ms(400);
  scfg.short_window = sim::ms(100);
  obs::ObservabilityPlane& plane = c.enable_obs(ocfg, scfg);
  c.drop_all_caches();

  // Phase 1 (0..500 ms): one steady stream, comfortably under the SLO.
  // Phase 2 (500 ms..): twelve half-MB flood streams join — more than
  // workers + queue, so admission sheds; eight 512 KB fetches sharing the
  // oversubscribed uplink push service latency well past the target.
  const sim::SimTime flood_at = sim::ms(500);
  const sim::SimTime window = sim::ms(1400);
  const sim::SimTime deadline = c.sim().now() + window;
  c.sim().spawn(episode_stream(&c, "steady", 0, kEpisodeChunk, 0, deadline, &out.ok));
  for (std::size_t k = 0; k < 12; ++k) {
    c.sim().spawn(episode_stream(&c, "flood", k * (kEpisodeFileBytes / 12),
                                 2 * kEpisodeChunk, flood_at, deadline, &out.ok));
  }
  c.run_job(idle(&c, window));
  plane.recorder().tick(c.sim().now());  // flush the final partial interval

  if (core::QosScheduler* qos = c.daemon("host1")->qos()) {
    for (const std::string& t : tenants) out.sheds += qos->shed(t);
  }
  out.alerts = plane.slo().alerts().size();
  if (!plane.slo().alerts().empty()) out.first_alert = plane.slo().alerts().front().t;

  out.timeline_path = "BENCH_ablation_obs.timeline.json";
  if (!plane.write_timeline_file(out.timeline_path)) out.ok = false;

  // ---- reconstruct the episode from the export ALONE ----
  std::ifstream f(out.timeline_path);
  std::ostringstream ss;
  ss << f.rdbuf();
  std::string err;
  const std::optional<obs::json::Value> doc = obs::json::parse(ss.str(), &err);
  if (!doc || doc->get_string("schema") != obs::kTimelineSchema) {
    std::cerr << "FAIL: timeline export unparseable: " << err << "\n";
    out.ok = false;
    return out;
  }
  if (const obs::json::Value* series = doc->get("series")) {
    for (const obs::json::Value& s : series->items()) {
      const obs::json::Value* labels = s.get("labels");
      if (s.get_uint("rollup") != 0 || (labels != nullptr && labels->get("rack"))) {
        ++out.rollup_series;
      }
      if (s.get_string("name") != "vread_daemon_read_latency_ns") continue;
      if (labels == nullptr || labels->get_string("host") != "host1") continue;
      if (const obs::json::Value* pts = s.get("points")) {
        for (const obs::json::Value& p : pts->items()) {
          const std::uint64_t p99 = p.get_uint("p99");
          out.max_p99_ns = std::max(out.max_p99_ns, p99);
          if (static_cast<sim::SimTime>(p.get_uint("t")) <= flood_at) {
            out.quiet_p99_ns = std::max(out.quiet_p99_ns, p99);
          }
        }
      }
    }
  }
  if (const obs::json::Value* flights = doc->get("flight")) {
    for (const obs::json::Value& fr : flights->items()) {
      const obs::json::Value* ev = fr.get("events");
      if (ev == nullptr) continue;
      for (const obs::json::Value& e : ev->items()) {
        if (e.get_string("kind") != "admission_shed") continue;
        ++out.shed_flight_events;
        const auto t = static_cast<sim::SimTime>(e.get_uint("t"));
        // Correlated: the sheds cluster inside the alerting episode.
        if (out.first_alert != 0 && t >= out.first_alert - scfg.long_window) {
          out.shed_near_alert = true;
        }
      }
    }
  }
  return out;
}

}  // namespace
}  // namespace vread::bench

int main(int argc, char** argv) {
  using namespace vread::bench;
  namespace obs = vread::obs;
  vread::metrics::print_banner(
      "Ablation: cluster observability plane",
      "256-host overhead/bit-identity arm + seeded ToR-saturation episode");
  BenchReport report("ablation_obs");
  report.param("scale_hosts", std::uint64_t{256})
      .param("scale_reads", kScaleReads)
      .param("obs_interval_ms", std::uint64_t{10})
      .param("episode_latency_slo_ms", std::uint64_t{20});

  bool ok = true;

  // ---- 1. overhead arm -------------------------------------------------
  // One full-size pair: bit identity at the reported scale, the reported
  // outputs and the memory gate.
  auto diverged = [&](const char* what, const TimedRun& off, const TimedRun& on) {
    if (same_outputs(off.result, on.result)) return;
    std::cerr << "FAIL: " << what << ": obs-on run diverged from obs-off (digest "
              << on.result.dispatch_digest << " vs " << off.result.dispatch_digest << ")\n";
    ok = false;
  };
  const TimedRun full_off = run_scale(kScaleReads, nullptr, nullptr);
  obs::TimeSeriesRecorder rec(plane_config());
  obs::FlightRecorder flight("selector");
  const TimedRun full_on = run_scale(kScaleReads, &rec, &flight);
  diverged("full-size run", full_off, full_on);
  const FlowSimResult& res_on = full_on.result;
  const std::size_t obs_bytes = rec.approx_bytes() + flight.approx_bytes();
  const std::uint64_t obs_ticks = rec.ticks();
  const std::uint64_t obs_series = rec.series().size();
  const auto top = rec.hot_blocks().top();
  const std::uint64_t hottest_block_bytes = top.empty() ? 0 : top.front().count;

  // The wall overhead: each pair runs both arms back to back and yields
  // one on/off ratio; the overhead is the median ratio, which ignores a
  // pair that a burst of host noise hit on one side only. The arm that
  // runs first alternates, because the second run of a pair is a little
  // slower whichever arm it is.
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    obs::TimeSeriesRecorder pair_rec(plane_config());
    obs::FlightRecorder pair_flight("selector");
    TimedRun off, on;
    if (pair % 2 == 0) {
      off = run_scale(kPairReads, nullptr, nullptr);
      on = run_scale(kPairReads, &pair_rec, &pair_flight);
    } else {
      on = run_scale(kPairReads, &pair_rec, &pair_flight);
      off = run_scale(kPairReads, nullptr, nullptr);
    }
    ratios.push_back(on.wall_s / off.wall_s);
    diverged("timing pair", off, on);
  }
  std::sort(ratios.begin(), ratios.end());
  const double wall_ratio = (ratios[kPairs / 2 - 1] + ratios[kPairs / 2]) / 2;
  const std::size_t rss = peak_rss_bytes();
  const double mem_frac = static_cast<double>(obs_bytes) / static_cast<double>(rss);
  std::cout << "overhead arm (256 hosts, median on/off ratio of " << kPairs << " pairs of "
            << kPairReads / 1000 << "k reads):\n  "
            << vread::metrics::fmt(100.0 * (wall_ratio - 1.0), 2)
            << " % overhead (pairs " << vread::metrics::fmt(100.0 * (ratios.front() - 1.0), 2)
            << " .. " << vread::metrics::fmt(100.0 * (ratios.back() - 1.0), 2)
            << " %; wall numbers stay out of the JSON report)\n  digest "
            << res_on.dispatch_digest << " identical across arms, " << obs_ticks
            << " ticks, " << obs_series << " series, plane retains "
            << vread::metrics::fmt(static_cast<double>(obs_bytes) / 1e6, 2)
            << " MB = " << vread::metrics::fmt(100.0 * mem_frac, 2)
            << " % of peak RSS\n\n";
  if (wall_ratio > 1.03) {
    std::cerr << "FAIL: obs-on wall overhead " << 100.0 * (wall_ratio - 1.0)
              << " % exceeds the 3 % budget\n";
    ok = false;
  }
  if (mem_frac > 0.05) {
    std::cerr << "FAIL: plane retains " << 100.0 * mem_frac
              << " % of peak RSS (budget 5 %)\n";
    ok = false;
  }
  report.metric("scale_obs_ticks", static_cast<double>(obs_ticks), "count", "higher");
  report.metric("scale_obs_series", static_cast<double>(obs_series), "count", "higher");
  report.metric("scale_hottest_block_mb",
                static_cast<double>(hottest_block_bytes) / 1e6, "MB", "higher");
  report.metric("scale_sim_seconds", res_on.sim_seconds, "s", "lower");

  // ---- 2. episode arm --------------------------------------------------
  const EpisodeOutcome ep = run_episode();
  std::cout << "episode arm (2 racks, flood joins at 500 ms, 20 ms latency SLO):\n"
            << "  quiet p99 " << vread::metrics::fmt(ep.quiet_p99_ns / 1e6, 1)
            << " ms -> spike p99 " << vread::metrics::fmt(ep.max_p99_ns / 1e6, 1)
            << " ms, " << ep.alerts << " burn-rate alerts (first at "
            << vread::metrics::fmt(ep.first_alert / 1e6, 0) << " ms), " << ep.sheds
            << " admission sheds, " << ep.shed_flight_events
            << " shed flight events, " << ep.rollup_series
            << " per-rack rollup series\n  timeline: " << ep.timeline_path
            << " (render with vreadstat --timeline)\n\n";
  if (!ep.ok) {
    std::cerr << "FAIL: episode arm: read verification or timeline export failed\n";
    ok = false;
  }
  if (ep.alerts == 0) {
    std::cerr << "FAIL: ToR saturation fired no SLO burn-rate alert\n";
    ok = false;
  }
  if (ep.max_p99_ns <= 20'000'000) {
    std::cerr << "FAIL: rack-1 p99 never crossed the 20 ms SLO target\n";
    ok = false;
  }
  if (ep.quiet_p99_ns >= ep.max_p99_ns) {
    std::cerr << "FAIL: no visible p99 spike (quiet " << ep.quiet_p99_ns
              << " ns >= peak " << ep.max_p99_ns << " ns)\n";
    ok = false;
  }
  if (ep.sheds == 0 || ep.shed_flight_events == 0 || !ep.shed_near_alert) {
    std::cerr << "FAIL: shed evidence missing from the flight recorders (sheds="
              << ep.sheds << ", events=" << ep.shed_flight_events
              << ", correlated=" << ep.shed_near_alert << ")\n";
    ok = false;
  }
  if (ep.rollup_series == 0) {
    std::cerr << "FAIL: timeline carries no per-rack rollup series\n";
    ok = false;
  }
  report.metric("episode_alerts", static_cast<double>(ep.alerts), "count", "higher");
  report.metric("episode_sheds", static_cast<double>(ep.sheds), "count", "higher");
  report.metric("episode_peak_p99_ms", static_cast<double>(ep.max_p99_ns) / 1e6, "ms",
                "lower");
  report.metric("episode_quiet_p99_ms", static_cast<double>(ep.quiet_p99_ns) / 1e6,
                "ms", "lower");
  report.metric("episode_rollup_series", static_cast<double>(ep.rollup_series),
                "count", "higher");
  report.metric("episode_shed_flight_events",
                static_cast<double>(ep.shed_flight_events), "count", "higher");

  report.maybe_write(argc, argv);
  if (!ok) return 1;
  std::cout << "observability plane: bit-identical, <3 % wall, <5 % memory, episode "
               "reconstructable from the timeline\n";
  return 0;
}
