// Time-series recorder: turns the registry's end-of-run snapshot model
// into percentiles-over-time (DESIGN.md §14).
//
// A `TimeSeriesRecorder` is a `sim::Probe`: the dispatch loop calls it
// between events once per configured sim-time interval, and the recorder
// scrapes the metrics registry into ring-buffered series:
//   * counters  — interval DELTAS (events/bytes per interval);
//   * gauges    — sampled levels;
//   * histograms — WINDOWED p50/p99/p999 + sample count, computed from
//     the diff of the log2 bucket arrays against the previous scrape, so
//     each point describes only that interval's samples (a lifetime
//     histogram converges and hides episodes; the diff does not).
//
// On top of the raw series it maintains cluster rollups:
//   * per-rack aggregation — every scraped series carrying a `host` label
//     is also folded into a per-rack series (counter deltas summed,
//     histogram window buckets merged) when a host->rack mapping is set;
//   * space-saving top-k heavy hitters — hottest blocks (fed by the
//     daemon / FlowSim read paths) and hottest tenants (derived from
//     vread_tenant_bytes_total deltas during the scrape).
//
// Determinism: the recorder never posts events, never co_awaits and
// consumes no (time, seq) numbers — attaching it at ANY interval leaves
// the event dispatch sequence bit-identical to obs-off (guard-tested
// against the dispatch digest). Memory is bounded by construction:
// ring-buffered points, fixed-k summaries.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics/registry.h"
#include "obs/topk.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace vread::obs {

struct ObsConfig {
  // Scrape cadence in sim time. Every interval the probe diffs the
  // registry and appends one point per series.
  sim::SimTime interval = sim::ms(10);
  // Points retained per series (ring buffer; oldest overwritten).
  std::size_t ring = 512;
  // Scrape the process metrics registry each tick. Off leaves only the
  // externally-fed series (FlowSim link/host sources).
  bool scrape_registry = true;
  // Threshold for the per-point `over` count on histogram series: window
  // samples whose log2 bucket lies strictly above this value's bucket.
  // The SLO monitor's latency burn rates divide `over` by `count`.
  std::uint64_t latency_target_ns = 2'000'000;
};

// One scraped point of one series. Counter/gauge points use `value`;
// histogram points use count/p50/.../p9999/over (value holds the window
// sample count as a double for uniform rendering).
struct SeriesPoint {
  sim::SimTime t = 0;
  double value = 0;
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t p9999 = 0;
  std::uint64_t over = 0;
};

// Fixed-capacity ring of points, oldest-first iteration.
class SeriesRing {
 public:
  explicit SeriesRing(std::size_t cap) { ring_.reserve(cap == 0 ? 1 : cap); }

  void push(const SeriesPoint& p) {
    if (ring_.size() < ring_.capacity()) {
      ring_.push_back(p);
    } else {
      ring_[next_] = p;
      next_ = (next_ + 1) % ring_.capacity();
    }
    ++pushed_;
  }

  std::size_t size() const { return ring_.size(); }
  std::uint64_t pushed() const { return pushed_; }
  std::size_t capacity() const { return ring_.capacity(); }

  template <class Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = ring_.size();
    const std::size_t start = n < ring_.capacity() ? 0 : next_;
    for (std::size_t i = 0; i < n; ++i) fn(ring_[(start + i) % n]);
  }

 private:
  std::vector<SeriesPoint> ring_;
  std::size_t next_ = 0;
  std::uint64_t pushed_ = 0;
};

enum class SeriesKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(SeriesKind k);

// Windowed percentile/threshold stats of one histogram bucket diff.
// p999/p9999 resolve the deep tail the tail-latency work (DESIGN.md §16)
// is judged on; with fewer samples than the rank needs they degrade to
// the window's maximum-occupied bucket, never to 0.
struct WindowStats {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t p9999 = 0;
  std::uint64_t over = 0;
};

class TimeSeriesRecorder final : public sim::Probe {
 public:
  struct Series {
    std::string name;
    metrics::Labels labels;
    SeriesKind kind = SeriesKind::kCounter;
    bool rollup = false;  // synthesized per-rack aggregate, not scraped
    SeriesRing points;
    // Scrape state: previous counter value / histogram bucket array.
    std::uint64_t prev_counter = 0;
    std::unique_ptr<std::array<std::uint64_t, metrics::Histogram::kBuckets>> prev_buckets;

    explicit Series(std::size_t ring_cap) : points(ring_cap) {}
  };

  explicit TimeSeriesRecorder(ObsConfig cfg = {},
                              const metrics::Registry* reg = &metrics::registry());

  const ObsConfig& config() const { return cfg_; }

  // Probe lifecycle: attach installs this recorder as the simulation's
  // probe with the first deadline one interval from now.
  void attach(sim::Simulation& sim);
  void detach();
  sim::SimTime on_advance(sim::SimTime now) override;

  // One scrape tick at simulated time `now` (attach() drives this from
  // the dispatch loop; tests and FlowSim's trailing flush call it
  // directly).
  void tick(sim::SimTime now);

  // External series source, invoked inside every tick (FlowSim link
  // utilization, host queue feeds). Sources call resolve()/sample() below.
  void add_source(std::function<void(sim::SimTime)> source);
  // Invoked at the END of every tick, after all series updated — the SLO
  // monitor's evaluation hook.
  void set_tick_hook(std::function<void(sim::SimTime)> hook);
  // Host name -> rack id (negative = unracked): with a mapping set,
  // host-labelled series also fold into per-rack rollup series.
  void set_rack_of(std::function<int(const std::string&)> rack_of);

  // In-tick sampling API for sources, which sample the same series every
  // tick: resolve() pays the key-building/map cost once, sample() is a
  // bare ring push. Handles stay valid for the recorder's lifetime
  // (series are never erased and std::map nodes do not move).
  Series* resolve(const std::string& name, const metrics::Labels& labels,
                  SeriesKind kind) {
    return &upsert(name, labels, kind, false);
  }
  static void sample(Series* s, sim::SimTime t, double value) {
    SeriesPoint p;
    p.t = t;
    p.value = value;
    s->points.push(p);
  }

  // Heavy-hitter feeds; callable from hot paths at any time. The uint64
  // overload is allocation-free and inline (FlowSim calls it once per
  // read — the obs ablation's <3 % wall budget rides on the k-entry scan
  // inlining into the caller); the string overload hashes and remembers
  // the name while the key stays in the summary.
  void record_block_access(std::uint64_t key, std::uint64_t bytes) {
    hot_blocks_.add(key, bytes);
  }
  void record_block_access(const std::string& name, std::uint64_t bytes);
  void record_tenant_bytes(const std::string& tenant, std::uint64_t bytes);
  // Renders a summary key back to a name: remembered name, else the
  // namer's output (FlowSim installs one), else hex.
  std::string key_name(std::uint64_t key) const;
  void set_key_namer(std::function<std::string(std::uint64_t)> namer);

  const std::map<std::string, Series>& series() const { return series_; }
  const SpaceSaving& hot_blocks() const { return hot_blocks_; }
  const SpaceSaving& hot_tenants() const { return hot_tenants_; }
  std::uint64_t ticks() const { return ticks_; }

  // Bytes held by rings, scrape state and summaries — the number the
  // ablation's memory gate checks against the baseline RSS.
  std::size_t approx_bytes() const;

  // Deterministic series key: "name{k=v,...}".
  static std::string series_key(const std::string& name, const metrics::Labels& labels);
  // Percentiles/threshold stats of one bucket-diff window (geometric
  // midpoint per bucket, mirroring Histogram::percentile).
  static WindowStats window_stats(
      const std::array<std::uint64_t, metrics::Histogram::kBuckets>& diff,
      std::uint64_t target);

 private:
  Series& upsert(const std::string& name, const metrics::Labels& labels,
                 SeriesKind kind, bool rollup);
  void scrape(sim::SimTime now);
  void remember_key(std::uint64_t key, const std::string& name);

  ObsConfig cfg_;
  const metrics::Registry* reg_;
  sim::Simulation* sim_ = nullptr;

  std::map<std::string, Series> series_;
  std::vector<std::function<void(sim::SimTime)>> sources_;
  std::function<void(sim::SimTime)> tick_hook_;
  std::function<int(const std::string&)> rack_of_;
  std::function<std::string(std::uint64_t)> key_namer_;

  SpaceSaving hot_blocks_;
  SpaceSaving hot_tenants_;
  std::map<std::uint64_t, std::string> key_names_;

  std::uint64_t ticks_ = 0;
  sim::SimTime last_tick_ = -1;
};

// FNV-1a of a string — the stable key the string-named heavy-hitter feeds
// use (exposed for tests).
std::uint64_t fnv1a(const std::string& s);

}  // namespace vread::obs
