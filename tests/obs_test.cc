// Observability plane (DESIGN.md §14, docs/OBSERVABILITY.md): space-saving
// top-k summaries, the time-series recorder (counter deltas, gauge levels,
// windowed histogram percentiles, ring wrap, per-rack rollups, heavy-hitter
// feeds), flight-recorder ring semantics and JSON dumps, multi-window SLO
// burn-rate gating with hysteresis, the obs::json parser, the
// vread-timeline/1 export round trip, and the bit-identity guards proving
// that attaching the scraper at ANY interval leaves the (time, seq)
// dispatch sequence of both simulation models untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "cluster/flowsim.h"
#include "cluster/route.h"
#include "core/qos.h"
#include "core/vread_daemon.h"
#include "hw/network.h"
#include "mem/buffer.h"
#include "metrics/registry.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/plane.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/timeseries.h"
#include "obs/topk.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "testutil.h"
#include "virt/shm_channel.h"

namespace vread::obs {
namespace {

// ------------------------------------------------------------ space-saving

TEST(SpaceSaving, ExactBelowCapacity) {
  SpaceSaving ss(4);
  ss.add(10, 5);
  ss.add(20, 7);
  ss.add(10, 3);
  EXPECT_EQ(ss.size(), 2u);
  EXPECT_EQ(ss.total(), 15u);
  const auto top = ss.top();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 10u);
  EXPECT_EQ(top[0].count, 8u);
  EXPECT_EQ(top[0].error, 0u);  // never evicted anything: counts are exact
  EXPECT_EQ(top[1].key, 20u);
  EXPECT_EQ(top[1].count, 7u);
}

TEST(SpaceSaving, HeavyHitterSurvivesUniformFlood) {
  // The space-saving guarantee: any key whose true weight exceeds
  // total/k stays in the summary no matter how many light keys churn
  // through, and its reported count brackets the true weight:
  // count - error <= true <= count.
  const std::size_t k = 8;
  SpaceSaving ss(k);
  const std::uint64_t kHot = 777;
  const std::uint64_t kHotWeight = 500;
  std::uint64_t hot_fed = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ss.add(1000 + i, 1);  // unique light keys
    if (i % 2 == 0) {
      ss.add(kHot, 1);
      ++hot_fed;
    }
  }
  (void)kHotWeight;
  EXPECT_TRUE(ss.tracked(kHot));
  const auto top = ss.top();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].key, kHot);
  EXPECT_GE(top[0].count, hot_fed);                    // upper bound
  EXPECT_LE(top[0].count - top[0].error, hot_fed);     // lower bound
  EXPECT_EQ(ss.total(), 1000u + hot_fed);
}

TEST(SpaceSaving, EvictsLowestIndexMinimumDeterministically) {
  SpaceSaving ss(2);
  ss.add(1, 3);
  ss.add(2, 3);  // equal counts: entry index 0 (key 1) is the eviction victim
  ss.add(3, 1);
  EXPECT_FALSE(ss.tracked(1));
  EXPECT_TRUE(ss.tracked(2));
  EXPECT_TRUE(ss.tracked(3));
  // The newcomer inherited the victim's count as its error bound.
  const auto top = ss.top();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 3u);
  EXPECT_EQ(top[0].count, 4u);  // 3 inherited + 1 added
  EXPECT_EQ(top[0].error, 3u);
}

TEST(SpaceSaving, TopOrdersByCountDescThenKeyAsc) {
  SpaceSaving ss(4);
  ss.add(9, 5);
  ss.add(3, 5);
  ss.add(7, 9);
  const auto top = ss.top();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 7u);
  EXPECT_EQ(top[1].key, 3u);  // tie at 5: lower key first
  EXPECT_EQ(top[2].key, 9u);
}

// -------------------------------------------------------------- series ring

TEST(SeriesRing, WrapKeepsNewestOldestFirst) {
  SeriesRing ring(4);
  for (int t = 1; t <= 6; ++t) {
    SeriesPoint p;
    p.t = sim::ms(t);
    ring.push(p);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.pushed(), 6u);
  std::vector<sim::SimTime> ts;
  ring.for_each([&](const SeriesPoint& p) { ts.push_back(p.t); });
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts, (std::vector<sim::SimTime>{sim::ms(3), sim::ms(4), sim::ms(5), sim::ms(6)}));
}

// --------------------------------------------------------- window stats

TEST(WindowStats, GeometricMidpointPercentilesAndOverCount) {
  using metrics::Histogram;
  std::array<std::uint64_t, Histogram::kBuckets> diff{};
  // 4 samples of value 3 (bucket 2 = [2,3]) and 1 of 5000 (bucket 13 =
  // [4096,8191]); target 1000 lands in bucket 10, so only the 5000 sample
  // counts as over.
  diff[Histogram::bucket_index(3)] = 4;
  diff[Histogram::bucket_index(5000)] = 1;
  const WindowStats w = TimeSeriesRecorder::window_stats(diff, 1000);
  EXPECT_EQ(w.count, 5u);
  EXPECT_EQ(w.over, 1u);
  // p50: nearest rank 3 falls in bucket [2,3] -> sqrt(2*3) rounds to 2.
  EXPECT_EQ(w.p50, 2u);
  // p99/p999: rank 5 falls in bucket [4096,8191] -> sqrt midpoint ~5792.
  EXPECT_EQ(w.p99, static_cast<std::uint64_t>(std::sqrt(4096.0 * 8191.0) + 0.5));
  EXPECT_EQ(w.p999, w.p99);
  // Monotone in p by construction.
  EXPECT_LE(w.p50, w.p99);
  EXPECT_LE(w.p99, w.p999);
}

TEST(WindowStats, SameBucketSpikeDoesNotCountAsOver) {
  // `over` counts buckets STRICTLY above the target's bucket: a value in
  // the target's own log2 bucket (even above the target) is not a
  // violation the window can see.
  using metrics::Histogram;
  std::array<std::uint64_t, Histogram::kBuckets> diff{};
  diff[Histogram::bucket_index(30)] = 10;  // bucket [16,31]
  const WindowStats w = TimeSeriesRecorder::window_stats(diff, 20);  // same bucket
  EXPECT_EQ(w.over, 0u);
  const WindowStats w2 = TimeSeriesRecorder::window_stats(diff, 15);  // bucket below
  EXPECT_EQ(w2.over, 10u);
}

TEST(WindowStats, DeepTailSplitsP999FromP9999) {
  // 10000 fast samples and 2 slow ones: rank(p999) still lands in the
  // fast bucket, rank(p9999) reaches the spike — the deep-tail field
  // (DESIGN.md §16) sees what p999 alone cannot.
  using metrics::Histogram;
  std::array<std::uint64_t, Histogram::kBuckets> diff{};
  diff[Histogram::bucket_index(3)] = 10000;
  diff[Histogram::bucket_index(100000)] = 2;
  const WindowStats w = TimeSeriesRecorder::window_stats(diff, 1000);
  EXPECT_EQ(w.count, 10002u);
  EXPECT_EQ(w.p999, 2u);  // bucket [2,3] geometric midpoint
  EXPECT_GT(w.p9999, 50000u);
  EXPECT_LE(w.p999, w.p9999);
  // An empty window reports zero through the whole tail.
  std::array<std::uint64_t, Histogram::kBuckets> empty{};
  const WindowStats z = TimeSeriesRecorder::window_stats(empty, 1000);
  EXPECT_EQ(z.p9999, 0u);
}

// ----------------------------------------------------------- recorder

TEST(TimeSeriesRecorder, CounterDeltasAndGaugeLevels) {
  metrics::Registry reg;
  metrics::MetricGroup g(reg);
  metrics::Counter& c = g.counter("test_bytes_total", {{"host", "h1"}});
  metrics::Gauge& gz = g.gauge("test_depth", {{"host", "h1"}});

  TimeSeriesRecorder rec(ObsConfig{}, &reg);
  c.inc(100);
  gz.set(7);
  rec.tick(sim::ms(10));
  c.inc(40);
  gz.set(3);
  rec.tick(sim::ms(20));

  const auto& series = rec.series();
  const auto cit = series.find("test_bytes_total{host=h1}");
  ASSERT_NE(cit, series.end());
  EXPECT_EQ(cit->second.kind, SeriesKind::kCounter);
  std::vector<double> deltas;
  cit->second.points.for_each([&](const SeriesPoint& p) { deltas.push_back(p.value); });
  EXPECT_EQ(deltas, (std::vector<double>{100.0, 40.0}));

  const auto git = series.find("test_depth{host=h1}");
  ASSERT_NE(git, series.end());
  EXPECT_EQ(git->second.kind, SeriesKind::kGauge);
  std::vector<double> levels;
  git->second.points.for_each([&](const SeriesPoint& p) { levels.push_back(p.value); });
  EXPECT_EQ(levels, (std::vector<double>{7.0, 3.0}));
  EXPECT_EQ(rec.ticks(), 2u);
}

TEST(TimeSeriesRecorder, HistogramWindowsDiffBetweenScrapes) {
  metrics::Registry reg;
  metrics::MetricGroup g(reg);
  metrics::Histogram& h = g.histogram("test_latency_ns", {{"host", "h1"}});

  ObsConfig cfg;
  cfg.latency_target_ns = 1000;
  TimeSeriesRecorder rec(cfg, &reg);
  for (int i = 0; i < 4; ++i) h.observe(3);
  h.observe(5000);
  rec.tick(sim::ms(10));
  rec.tick(sim::ms(20));  // empty window: nothing new observed

  const auto it = rec.series().find("test_latency_ns{host=h1}");
  ASSERT_NE(it, rec.series().end());
  EXPECT_EQ(it->second.kind, SeriesKind::kHistogram);
  std::vector<SeriesPoint> pts;
  it->second.points.for_each([&](const SeriesPoint& p) { pts.push_back(p); });
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].count, 5u);
  EXPECT_EQ(pts[0].over, 1u);
  EXPECT_EQ(pts[0].p50, 2u);
  EXPECT_GT(pts[0].p99, 5000u * 9 / 10);
  // Second window saw no samples: a lifetime histogram would still show
  // the old percentiles, the interval diff shows silence.
  EXPECT_EQ(pts[1].count, 0u);
  EXPECT_EQ(pts[1].p99, 0u);
}

TEST(TimeSeriesRecorder, RackRollupSumsHostSeries) {
  metrics::Registry reg;
  metrics::MetricGroup g(reg);
  metrics::Counter& c0 = g.counter("test_bytes_total", {{"host", "h0"}});
  metrics::Counter& c1 = g.counter("test_bytes_total", {{"host", "h1"}});
  metrics::Counter& c2 = g.counter("test_bytes_total", {{"host", "h9"}});

  TimeSeriesRecorder rec(ObsConfig{}, &reg);
  rec.set_rack_of([](const std::string& host) {
    return host == "h9" ? 1 : 0;  // h0,h1 -> rack 0; h9 -> rack 1
  });
  c0.inc(10);
  c1.inc(20);
  c2.inc(5);
  rec.tick(sim::ms(10));

  const auto it = rec.series().find("test_bytes_total{rack=0}");
  ASSERT_NE(it, rec.series().end());
  EXPECT_TRUE(it->second.rollup);
  std::vector<double> deltas;
  it->second.points.for_each([&](const SeriesPoint& p) { deltas.push_back(p.value); });
  EXPECT_EQ(deltas, (std::vector<double>{30.0}));

  const auto it1 = rec.series().find("test_bytes_total{rack=1}");
  ASSERT_NE(it1, rec.series().end());
  std::vector<double> d1;
  it1->second.points.for_each([&](const SeriesPoint& p) { d1.push_back(p.value); });
  EXPECT_EQ(d1, (std::vector<double>{5.0}));
}

TEST(TimeSeriesRecorder, TenantHeavyHittersFedFromScrape) {
  metrics::Registry reg;
  metrics::MetricGroup g(reg);
  metrics::Counter& a = g.counter("vread_tenant_bytes_total", {{"tenant", "alice"}});
  metrics::Counter& b = g.counter("vread_tenant_bytes_total", {{"tenant", "bob"}});

  TimeSeriesRecorder rec(ObsConfig{}, &reg);
  a.inc(900);
  b.inc(100);
  rec.tick(sim::ms(10));
  EXPECT_TRUE(rec.hot_tenants().tracked(fnv1a("alice")));
  EXPECT_TRUE(rec.hot_tenants().tracked(fnv1a("bob")));
  const auto top = rec.hot_tenants().top();
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(rec.key_name(top[0].key), "alice");
  EXPECT_EQ(top[0].count, 900u);
}

TEST(TimeSeriesRecorder, ResolveHandlesAreStableAndSampleIsABarePush) {
  TimeSeriesRecorder rec(ObsConfig{.scrape_registry = false}, nullptr);
  auto* s1 = rec.resolve("vread_obs_flows_active", {}, SeriesKind::kGauge);
  auto* s2 = rec.resolve("vread_obs_flows_active", {}, SeriesKind::kGauge);
  EXPECT_EQ(s1, s2);  // same series key -> same node, stable address
  TimeSeriesRecorder::sample(s1, sim::ms(1), 4.0);
  TimeSeriesRecorder::sample(s1, sim::ms(2), 6.0);
  EXPECT_EQ(s1->points.size(), 2u);
}

TEST(TimeSeriesRecorder, TickDedupesCoincidingTimestamps) {
  // FlowSim's trailing flush may land on the same instant as the last
  // probe tick; the second call must be a no-op, not a duplicate point.
  metrics::Registry reg;
  metrics::MetricGroup g(reg);
  metrics::Counter& c = g.counter("test_total", {});
  TimeSeriesRecorder rec(ObsConfig{}, &reg);
  c.inc(1);
  rec.tick(sim::ms(10));
  rec.tick(sim::ms(10));
  EXPECT_EQ(rec.ticks(), 1u);
  EXPECT_EQ(rec.series().at("test_total{}").points.size(), 1u);
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingOverwritesOldestAndFlagsTrouble) {
  FlightRecorder fr("unit", 3);
  for (int t = 1; t <= 5; ++t) {
    std::string what = "n";
    what += std::to_string(t);
    fr.record(sim::ms(t), FlightEventKind::kNote, std::move(what));
  }
  EXPECT_EQ(fr.recorded(), 5u);
  EXPECT_EQ(fr.overwritten(), 2u);
  EXPECT_FALSE(fr.troubled());  // notes are not trouble
  const auto ev = fr.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].what, "n3");  // oldest surviving first
  EXPECT_EQ(ev[2].what, "n5");
  fr.record(sim::ms(6), FlightEventKind::kAdmissionShed, "tenantX", "", 7);
  EXPECT_TRUE(fr.troubled());
}

TEST(FlightRecorder, DumpJsonParsesBackWithObsJson) {
  FlightRecorder fr("host-a", 8);
  fr.record(sim::ms(1), FlightEventKind::kRouteChoice, "dn1", "same-rack", 1, 256);
  fr.record(sim::ms(2), FlightEventKind::kFailover, "rdma->tcp");
  std::ostringstream os;
  fr.dump_json(os, "unit-test");
  std::string err;
  const auto doc = json::parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->get_string("who"), "host-a");
  EXPECT_EQ(doc->get_string("reason"), "unit-test");
  EXPECT_EQ(doc->get_uint("recorded"), 2u);
  const json::Value* events = doc->get("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);
  const json::Value& e0 = events->items()[0];
  EXPECT_EQ(e0.get_string("kind"), "route_choice");
  EXPECT_EQ(e0.get_string("what"), "dn1");
  EXPECT_EQ(e0.get_string("detail"), "same-rack");
  EXPECT_EQ(e0.get_uint("a"), 1u);
  EXPECT_EQ(e0.get_uint("b"), 256u);
  EXPECT_EQ(events->items()[1].get_string("kind"), "failover");
}

// ------------------------------------------------------------ SLO monitor

// Bed: a recorder holding one latency histogram series fed by hand, so
// burn rates are exact fractions of the pushed over/count points.
struct SloBed {
  metrics::Registry reg;  // isolates vread_slo_* instruments
  TimeSeriesRecorder rec{ObsConfig{.scrape_registry = false}, nullptr};
  SloConfig cfg;
  TimeSeriesRecorder::Series* series = nullptr;

  explicit SloBed(SloConfig c = {}) : cfg(std::move(c)) {
    series = rec.resolve(kLatencySeries, {{"host", "h1"}}, SeriesKind::kHistogram);
  }

  void push(sim::SimTime t, std::uint64_t count, std::uint64_t over) {
    SeriesPoint p;
    p.t = t;
    p.count = count;
    p.over = over;
    p.value = static_cast<double>(count);
    series->points.push(p);
  }
};

TEST(SloMonitor, FiresWhenBothWindowsBurnAndClearsOnShortWindow) {
  SloBed bed;  // defaults: budget 1%, windows 1000/100 ms, threshold 4.0
  SloMonitor slo(bed.cfg, bed.rec, bed.reg);
  FlightRecorder fr("cluster", 16);
  slo.set_flight_recorder(&fr);

  // Ten clean 100ms intervals: burn 0 everywhere.
  for (int i = 1; i <= 10; ++i) bed.push(sim::ms(100 * i), 100, 0);
  slo.evaluate(sim::ms(1000));
  EXPECT_TRUE(slo.alerts().empty());
  EXPECT_EQ(slo.firing(), 0u);

  // Five hot intervals at 10% violations: short-window burn 10, and by
  // t=1500 the long window holds 5 hot + 5 clean points -> burn 5. Both
  // above threshold 4 -> exactly one alert despite repeated evaluation.
  for (int i = 11; i <= 15; ++i) {
    bed.push(sim::ms(100 * i), 100, 10);
    slo.evaluate(sim::ms(100 * i));
  }
  ASSERT_EQ(slo.alerts().size(), 1u);
  const SloAlert& a = slo.alerts()[0];
  EXPECT_EQ(a.slo, "read_latency");
  EXPECT_NE(a.scope.find("host=h1"), std::string::npos);
  EXPECT_GE(a.burn_short, 4.0);
  EXPECT_GE(a.burn_long, 4.0);
  EXPECT_EQ(slo.firing(), 1u);
  // The alert also landed in the flight recorder with burns x1000.
  const auto ev = fr.events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, FlightEventKind::kSloAlert);
  EXPECT_TRUE(fr.troubled());
  EXPECT_EQ(ev[0].a, static_cast<std::uint64_t>(a.burn_long * 1000));

  // One clean short window clears the gate (hysteresis: the long window
  // is still hot, only the short window must recover)...
  bed.push(sim::ms(1600), 100, 0);
  slo.evaluate(sim::ms(1600));
  EXPECT_EQ(slo.firing(), 0u);
  EXPECT_EQ(slo.alerts().size(), 1u);

  // ...and a fresh hot burst re-fires as a NEW alert.
  bed.push(sim::ms(1700), 100, 10);
  slo.evaluate(sim::ms(1700));
  EXPECT_EQ(slo.alerts().size(), 2u);
  EXPECT_EQ(fr.events().size(), 2u);
}

TEST(SloMonitor, ShortBlipWithoutLongWindowSupportDoesNotFire) {
  SloBed bed;
  SloMonitor slo(bed.cfg, bed.rec, bed.reg);
  // Nine clean intervals, then ONE hot one: short burn 10, but the long
  // window dilutes to 10/1000/0.01 = 1 < 4 -> multi-window gating holds.
  for (int i = 1; i <= 9; ++i) bed.push(sim::ms(100 * i), 100, 0);
  bed.push(sim::ms(1000), 100, 10);
  slo.evaluate(sim::ms(1000));
  EXPECT_TRUE(slo.alerts().empty());
  EXPECT_EQ(slo.firing(), 0u);
}

TEST(SloMonitor, EvaluateRunsAsRecorderTickHook) {
  // The constructor wires itself as the recorder's tick hook: pushing hot
  // points and ticking the recorder must alert without an explicit
  // evaluate() call.
  SloBed bed;
  SloMonitor slo(bed.cfg, bed.rec, bed.reg);
  for (int i = 1; i <= 10; ++i) bed.push(sim::ms(100 * i), 100, 50);
  bed.rec.tick(sim::ms(1000));
  EXPECT_EQ(slo.alerts().size(), 1u);
}

// ------------------------------------------------------------- json parser

TEST(ObsJson, ParsesEscapesAndUnicode) {
  std::string err;
  const auto v = json::parse(
      R"({"s":"a\"b\\c\/d\n\tA","pair":"😀","n":-2.5e2,)"
      R"("t":true,"f":false,"z":null,"arr":[1,2,3]})",
      &err);
  ASSERT_TRUE(v.has_value()) << err;
  EXPECT_EQ(v->get_string("s"), "a\"b\\c/d\n\tA");
  EXPECT_EQ(v->get_string("pair"), "\xF0\x9F\x98\x80");  // U+1F600 as UTF-8
  EXPECT_DOUBLE_EQ(v->get_double("n"), -250.0);
  ASSERT_NE(v->get("t"), nullptr);
  EXPECT_TRUE(v->get("t")->as_bool());
  EXPECT_FALSE(v->get("f")->as_bool());
  EXPECT_EQ(v->get("z")->kind(), json::Value::Kind::kNull);
  ASSERT_NE(v->get("arr"), nullptr);
  EXPECT_EQ(v->get("arr")->items().size(), 3u);
  EXPECT_EQ(v->get("arr")->items()[2].as_uint(), 3u);
}

TEST(ObsJson, ErrorsNameTheOffset) {
  std::string err;
  EXPECT_FALSE(json::parse("{\"a\":}", &err).has_value());
  EXPECT_NE(err.find("offset"), std::string::npos);

  err.clear();
  EXPECT_FALSE(json::parse("1 trailing", &err).has_value());
  EXPECT_FALSE(err.empty());  // trailing garbage is an error, not ignored

  err.clear();
  EXPECT_FALSE(json::parse("\"unterminated", &err).has_value());
  EXPECT_FALSE(err.empty());

  // Nesting beyond the parser's depth cap fails loudly instead of
  // recursing unboundedly on hostile input.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  err.clear();
  EXPECT_FALSE(json::parse(deep, &err).has_value());
  EXPECT_NE(err.find("deep"), std::string::npos);
}

// ---------------------------------------------------------------- timeline

TEST(Timeline, RoundTripsThroughObsJson) {
  SloBed bed;
  SloMonitor slo(bed.cfg, bed.rec, bed.reg);
  FlightRecorder fr("cluster", 8);
  slo.set_flight_recorder(&fr);
  for (int i = 1; i <= 10; ++i) {
    bed.push(sim::ms(100 * i), 100, i >= 6 ? 20 : 0);
    bed.rec.tick(sim::ms(100 * i));
  }
  bed.rec.record_block_access(std::string("blk_42"), 1 << 20);

  std::ostringstream os;
  write_timeline(os, bed.rec, &slo, {&fr});
  std::string err;
  const auto doc = json::parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;

  EXPECT_EQ(doc->get_string("schema"), kTimelineSchema);
  EXPECT_EQ(doc->get_uint("ticks"), bed.rec.ticks());

  const json::Value* series = doc->get("series");
  ASSERT_NE(series, nullptr);
  bool found_latency = false;
  for (const json::Value& s : series->items()) {
    if (s.get_string("name") != kLatencySeries) continue;
    found_latency = true;
    EXPECT_EQ(s.get_string("kind"), "histogram");
    const json::Value* points = s.get("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->items().size(), 10u);
    EXPECT_EQ(points->items()[9].get_uint("over"), 20u);
  }
  EXPECT_TRUE(found_latency);

  const json::Value* blocks = doc->get("top_blocks");
  ASSERT_NE(blocks, nullptr);
  ASSERT_FALSE(blocks->items().empty());
  EXPECT_EQ(blocks->items()[0].get_string("name"), "blk_42");
  EXPECT_EQ(blocks->items()[0].get_uint("bytes"), 1u << 20);

  const json::Value* alerts = doc->get("alerts");
  ASSERT_NE(alerts, nullptr);
  ASSERT_FALSE(alerts->items().empty());
  EXPECT_EQ(alerts->items()[0].get_string("slo"), "read_latency");

  const json::Value* flight = doc->get("flight");
  ASSERT_NE(flight, nullptr);
  ASSERT_FALSE(flight->items().empty());
  EXPECT_EQ(flight->items()[0].get_string("who"), "cluster");
  const json::Value* events = flight->items()[0].get("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->items().size(), fr.events().size());
}

TEST(Timeline, ChromeCounterEventsEmitCountTracks) {
  TimeSeriesRecorder rec(ObsConfig{.scrape_registry = false}, nullptr);
  auto* s = rec.resolve("vread_obs_flows_active", {}, SeriesKind::kGauge);
  TimeSeriesRecorder::sample(s, sim::ms(1), 4.0);
  std::ostringstream os;
  chrome_counter_events(os, rec);
  const std::string out = os.str();
  // Fragment form: every event is ",\n{...}" so it splices into the trace
  // exporter's event array; counters are "C"-phase on the obs pid.
  EXPECT_EQ(out.rfind(",\n{", 0), 0u);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(out.find("vread_obs_flows_active"), std::string::npos);
}

// ------------------------------------------------- tail reproduction

// `path` by value: the spawned coroutine outlives the caller's frame.
sim::Task tail_pread(hdfs::DfsClient* client, std::string path, std::uint64_t offset,
                     std::uint64_t len) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  mem::Buffer data;
  co_await in->pread(offset, len, data);
  co_await in->close();
}

// One seeded run: remote reads against a GC-afflicted (or pristine)
// device, scraped every 2ms, exported as a timeline. Returns the daemon
// read-latency series' windowed tail stats. The first point is dropped:
// the recorder's first diff absorbs whatever earlier tests left retired
// in the process-global registry, every later window is run-local.
std::vector<std::vector<std::uint64_t>> tail_windows(bool variability,
                                                     std::uint64_t* max_p999) {
  testutil::RegistryGuard guard;
  core::DaemonConfig dc;
  dc.workers = 4;
  dc.cache_bytes = 0;  // every read touches the device, where GC lives
  dc.disk.enabled = variability;
  dc.disk.seed = 5;
  // Window percentiles answer with power-of-two bucket midpoints, and the
  // calm run's slowest read (first-open overheads) already reaches the
  // [4.2ms, 8.4ms) bucket — the stall must carry the tail past the 8.4ms
  // bucket edge to register as a distinct spike.
  dc.disk.gc_period = sim::ms(20);
  dc.disk.gc_duration = sim::ms(16);
  auto c = testutil::remote_bed(8 * 1024 * 1024, 5);
  c->enable_vread(testutil::validated(dc));
  ObsConfig ocfg;
  ocfg.interval = sim::ms(2);
  ObservabilityPlane& plane = c->enable_obs(ocfg);
  for (int i = 0; i < 10; ++i) {
    c->drop_all_caches();
    c->run_job(tail_pread(c->client("client"), "/f",
                          static_cast<std::uint64_t>(i) * 256 * 1024, 128 * 1024));
  }
  c->run_job(testutil::idle(c.get(), sim::ms(10)));  // flush the last window

  std::ostringstream os;
  plane.write_timeline(os);
  std::string err;
  const auto doc = json::parse(os.str(), &err);
  EXPECT_TRUE(doc.has_value()) << err;
  std::vector<std::vector<std::uint64_t>> windows;
  if (!doc.has_value()) return windows;
  const json::Value* series = doc->get("series");
  EXPECT_NE(series, nullptr);
  for (const json::Value& s : series->items()) {
    if (s.get_string("name") != "vread_daemon_read_latency_ns") continue;
    const json::Value* labels = s.get("labels");
    if (labels == nullptr || labels->get_string("host") != "host1") continue;
    const json::Value* points = s.get("points");
    EXPECT_NE(points, nullptr);
    bool first = true;
    for (const json::Value& p : points->items()) {
      if (first) {
        first = false;
        continue;
      }
      windows.push_back({p.get_uint("count"), p.get_uint("p50"), p.get_uint("p99"),
                         p.get_uint("p999"), p.get_uint("p9999")});
      if (max_p999 != nullptr) *max_p999 = std::max(*max_p999, p.get_uint("p999"));
    }
  }
  EXPECT_FALSE(windows.empty());
  return windows;
}

TEST(TailReproduction, SeededGcSpikeIsBitIdenticalAcrossRuns) {
  // The point of a SEEDED variability model: the exact p99/p999/p9999
  // spike a GC schedule produces is a pure function of the seed, so a
  // flagged tail incident replays window for window.
  std::uint64_t spike_a = 0, spike_b = 0, calm = 0;
  const auto a = tail_windows(true, &spike_a);
  const auto b = tail_windows(true, &spike_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(spike_a, spike_b);
  // And the spike is real: the same workload on a pristine device never
  // reaches the GC run's tail.
  tail_windows(false, &calm);
  EXPECT_GT(spike_a, calm);
}

TEST(TailReproduction, TimelineExportCarriesDeepTailFields) {
  testutil::RegistryGuard guard;
  auto c = testutil::remote_bed(4 * 1024 * 1024, 3);
  c->enable_vread(core::DaemonConfig{});
  ObsConfig ocfg;
  ocfg.interval = sim::ms(2);
  ObservabilityPlane& plane = c->enable_obs(ocfg);
  c->run_job(tail_pread(c->client("client"), "/f", 0, 1024 * 1024));
  c->run_job(testutil::idle(c.get(), sim::ms(10)));
  std::ostringstream os;
  plane.write_timeline(os);
  // Histogram points serialize the whole tail ladder, p9999 included.
  EXPECT_NE(os.str().find("\"p999\":"), std::string::npos);
  EXPECT_NE(os.str().find("\"p9999\":"), std::string::npos);
}

// --------------------------------------------------- qos shed flight event

TEST(QosFlight, AdmissionShedRecordsTenantAndQueueDepth) {
  testutil::RegistryGuard guard;
  sim::Simulation sim;
  core::QosConfig cfg;
  cfg.max_queue = 1;
  core::QosScheduler sched(sim, cfg, "host1");
  FlightRecorder fr("host1", 8);
  sched.set_flight_recorder(&fr);

  virt::ShmRequest req;
  req.op = static_cast<int>(core::VReadOp::kRead);
  req.len = 4096;
  EXPECT_TRUE(sched.submit("tenantA", {req, nullptr}));
  EXPECT_FALSE(sched.submit("tenantA", {req, nullptr}));  // over the cap
  EXPECT_EQ(sched.shed("tenantA"), 1u);

  const auto ev = fr.events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, FlightEventKind::kAdmissionShed);
  EXPECT_EQ(ev[0].what, "tenantA");
  EXPECT_EQ(ev[0].a, 1u);  // queue depth at rejection
  EXPECT_TRUE(fr.troubled());
}

// ---------------------------------------------------- bit-identity guards

cluster::FlowSimConfig guard_flow_cfg() {
  cluster::FlowSimConfig cfg;
  cfg.topo.racks = 8;  // 64 hosts
  cfg.topo.hosts_per_rack = 8;
  cfg.topo.vms_per_host = 2;
  cfg.topo.oversubscription = 4.0;
  cfg.route.policy = cluster::RoutePolicy::kReplicaAware;
  cfg.blocks = 512;
  cfg.block_bytes = 1 << 20;
  cfg.reads = 30000;
  cfg.dispatch_digest = true;
  return cfg;
}

TEST(BitIdentity, FlowSimScrapeAtAnyIntervalLeavesDispatchUntouched) {
  const cluster::FlowSimResult off = run_flowsim(guard_flow_cfg());
  ASSERT_NE(off.dispatch_digest, 0u);
  for (const sim::SimTime interval : {sim::ms(1), sim::ms(7), sim::ms(50)}) {
    ObsConfig ocfg;
    ocfg.interval = interval;
    ocfg.scrape_registry = false;
    TimeSeriesRecorder rec(ocfg, nullptr);
    FlightRecorder fr("selector", 64);
    cluster::FlowSimConfig cfg = guard_flow_cfg();
    cfg.obs = &rec;
    cfg.flight = &fr;
    const cluster::FlowSimResult on = run_flowsim(cfg);
    // The probe observed the run...
    EXPECT_GT(rec.ticks(), 0u) << sim::to_seconds(interval);
    // ...without consuming a single (time, seq) number.
    EXPECT_EQ(on.dispatch_digest, off.dispatch_digest) << sim::to_seconds(interval);
    EXPECT_EQ(on.events_dispatched, off.events_dispatched);
    EXPECT_DOUBLE_EQ(on.sim_seconds, off.sim_seconds);
    EXPECT_EQ(on.chosen_same_host, off.chosen_same_host);
    EXPECT_EQ(on.chosen_same_rack, off.chosen_same_rack);
    EXPECT_EQ(on.chosen_cross_rack, off.chosen_cross_rack);
    EXPECT_EQ(on.cross_rack_bytes, off.cross_rack_bytes);
  }
}

TEST(BitIdentity, DetailedSimObsOnMatchesObsOff) {
  auto run = [](bool obs_on, sim::SimTime interval) {
    apps::Cluster c(testutil::small_blocks());
    c.add_host("host1");
    c.add_host("host2");
    c.add_vm("host1", "client");
    c.create_namenode("client");
    c.add_datanode("host1", "datanode1");
    c.add_datanode("host2", "datanode2");
    c.add_client("client");
    c.preload_file("/data", 8 * 1024 * 1024, 17, {{"datanode2", "datanode1"}});
    c.enable_vread();
    if (obs_on) {
      ObsConfig ocfg;
      ocfg.interval = interval;
      c.enable_obs(ocfg);
    }
    c.drop_all_caches();
    c.sim().enable_dispatch_digest();
    apps::DfsIoResult r;
    c.sim().spawn(apps::TestDfsIo::read(c, "client", "/data", 1 << 20, r));
    c.sim().run();
    return std::tuple{r.checksum, c.sim().now(), c.sim().dispatch_digest(),
                      c.sim().events_dispatched()};
  };
  const auto off = run(false, sim::ms(10));
  for (const sim::SimTime interval : {sim::ms(1), sim::ms(10), sim::ms(50)}) {
    const auto on = run(true, interval);
    EXPECT_EQ(std::get<0>(on), std::get<0>(off));
    EXPECT_EQ(std::get<1>(on), std::get<1>(off)) << sim::to_seconds(interval);
    EXPECT_EQ(std::get<2>(on), std::get<2>(off)) << sim::to_seconds(interval);
    EXPECT_EQ(std::get<3>(on), std::get<3>(off));
  }
}

// ------------------------------------------------ plane integration

TEST(Plane, ScrapesClusterRunAndDumpsTroubledFlightsOnly) {
  testutil::RegistryGuard guard;
  apps::Cluster c(testutil::small_blocks());
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_datanode("host2", "datanode2");
  c.add_client("client");
  c.preload_file("/data", 8 * 1024 * 1024, 17, {{"datanode1", "datanode2"}});
  c.enable_vread();
  // A generous latency target keeps this run alert-free: cold reads blow
  // through the 2ms default and would (correctly) trouble the cluster
  // recorder with an SLO alert.
  ObsConfig ocfg;
  ocfg.interval = sim::ms(1);
  ocfg.latency_target_ns = 1'000'000'000;
  ObservabilityPlane& plane = c.enable_obs(ocfg);
  c.drop_all_caches();
  apps::DfsIoResult r;
  c.sim().spawn(apps::TestDfsIo::read(c, "client", "/data", 1 << 20, r));
  c.sim().run();

  EXPECT_GT(plane.recorder().ticks(), 0u);
  // The scrape carried the daemon's latency histogram into the rings.
  bool saw_latency = false;
  for (const auto& [key, s] : plane.recorder().series()) {
    if (s.name == "vread_daemon_read_latency_ns") saw_latency = true;
  }
  EXPECT_TRUE(saw_latency);

  // A clean run has no troubled recorders: the post-mortem dump writes
  // nothing.
  EXPECT_TRUE(plane.dump_troubled_flights("/tmp/vread-obs-test", "unit").empty());

  // Troubling one recorder makes exactly that one dump.
  plane.flight("host1").record(c.sim().now(), FlightEventKind::kRestart, "host1");
  const auto paths = plane.dump_troubled_flights("/tmp/vread-obs-test", "unit");
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NE(paths[0].find("host1"), std::string::npos);
  std::remove(paths[0].c_str());
}

}  // namespace
}  // namespace vread::obs
