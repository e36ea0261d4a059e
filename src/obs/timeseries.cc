#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vread::obs {

namespace {
// Heavy-hitter summary capacity (hottest blocks / tenants).
constexpr std::size_t kTopK = 8;
}  // namespace

const char* to_string(SeriesKind k) {
  switch (k) {
    case SeriesKind::kCounter: return "counter";
    case SeriesKind::kGauge: return "gauge";
    case SeriesKind::kHistogram: return "histogram";
  }
  return "?";
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

TimeSeriesRecorder::TimeSeriesRecorder(ObsConfig cfg, const metrics::Registry* reg)
    : cfg_(cfg),
      reg_(reg),
      hot_blocks_(kTopK),
      hot_tenants_(kTopK) {
  if (cfg_.interval <= 0) cfg_.interval = sim::ms(10);
}

void TimeSeriesRecorder::attach(sim::Simulation& sim) {
  sim_ = &sim;
  sim.set_probe(this, sim.now() + cfg_.interval);
}

void TimeSeriesRecorder::detach() {
  if (sim_ && sim_->probe() == this) sim_->set_probe(nullptr, 0);
  sim_ = nullptr;
}

sim::SimTime TimeSeriesRecorder::on_advance(sim::SimTime now) {
  tick(now);
  return now + cfg_.interval;
}

void TimeSeriesRecorder::tick(sim::SimTime now) {
  if (now == last_tick_) return;  // FlowSim's trailing flush may coincide
  last_tick_ = now;
  ++ticks_;
  if (cfg_.scrape_registry && reg_ != nullptr) scrape(now);
  for (const auto& src : sources_) src(now);
  if (tick_hook_) tick_hook_(now);
}

std::string TimeSeriesRecorder::series_key(const std::string& name,
                                           const metrics::Labels& labels) {
  std::string key = name;
  key.push_back('{');
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) key.push_back(',');
    key += labels[i].first;
    key.push_back('=');
    key += labels[i].second;
  }
  key.push_back('}');
  return key;
}

TimeSeriesRecorder::Series& TimeSeriesRecorder::upsert(const std::string& name,
                                                       const metrics::Labels& labels,
                                                       SeriesKind kind, bool rollup) {
  const std::string key = series_key(name, labels);
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, Series(cfg_.ring)).first;
    it->second.name = name;
    it->second.labels = labels;
    it->second.kind = kind;
    it->second.rollup = rollup;
  }
  return it->second;
}

WindowStats TimeSeriesRecorder::window_stats(
    const std::array<std::uint64_t, metrics::Histogram::kBuckets>& diff,
    std::uint64_t target) {
  using metrics::Histogram;
  WindowStats w;
  for (const std::uint64_t c : diff) w.count += c;
  if (w.count == 0) return w;
  const std::size_t target_bucket = Histogram::bucket_index(target);
  auto pct = [&](double p) -> std::uint64_t {
    const auto want = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(w.count) + 0.9999999999);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      cum += diff[i];
      if (cum >= want && diff[i] > 0) {
        if (i == 0) return 0;
        const auto lo = static_cast<double>(std::max<std::uint64_t>(Histogram::bucket_lower(i), 1));
        const auto hi = static_cast<double>(Histogram::bucket_upper(i));
        return static_cast<std::uint64_t>(std::sqrt(lo * hi) + 0.5);
      }
    }
    return 0;
  };
  w.p50 = pct(50);
  w.p99 = pct(99);
  w.p999 = pct(99.9);
  w.p9999 = pct(99.99);
  for (std::size_t i = target_bucket + 1; i < Histogram::kBuckets; ++i) w.over += diff[i];
  return w;
}

void TimeSeriesRecorder::scrape(sim::SimTime now) {
  using metrics::Histogram;
  const metrics::Registry::Snapshot snap = reg_->snapshot();

  // Per-rack accumulation for this tick: counter deltas summed, gauge
  // levels summed, histogram window buckets merged.
  struct RackAgg {
    SeriesKind kind = SeriesKind::kCounter;
    double value = 0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  };
  std::map<std::pair<std::string, int>, RackAgg> racks;

  for (const metrics::Registry::Snapshot::Row& row : snap.rows) {
    int rack = -1;
    if (rack_of_) {
      for (const auto& [k, v] : row.labels) {
        if (k == "host") rack = rack_of_(v);
      }
    }
    switch (row.kind) {
      case metrics::MetricKind::kCounter: {
        Series& s = upsert(row.name, row.labels, SeriesKind::kCounter, false);
        const double delta =
            static_cast<double>(row.counter) - static_cast<double>(s.prev_counter);
        s.prev_counter = row.counter;
        SeriesPoint p;
        p.t = now;
        p.value = delta;
        s.points.push(p);
        if (rack >= 0) {
          RackAgg& agg = racks[{row.name, rack}];
          agg.kind = SeriesKind::kCounter;
          agg.value += delta;
        }
        if (row.name == "vread_tenant_bytes_total" && delta > 0) {
          for (const auto& [k, v] : row.labels) {
            if (k == "tenant") record_tenant_bytes(v, static_cast<std::uint64_t>(delta));
          }
        }
        break;
      }
      case metrics::MetricKind::kGauge: {
        Series& s = upsert(row.name, row.labels, SeriesKind::kGauge, false);
        SeriesPoint p;
        p.t = now;
        p.value = static_cast<double>(row.gauge);
        s.points.push(p);
        if (rack >= 0) {
          RackAgg& agg = racks[{row.name, rack}];
          agg.kind = SeriesKind::kGauge;
          agg.value += p.value;
        }
        break;
      }
      case metrics::MetricKind::kHistogram: {
        Series& s = upsert(row.name, row.labels, SeriesKind::kHistogram, false);
        if (!s.prev_buckets) {
          s.prev_buckets =
              std::make_unique<std::array<std::uint64_t, Histogram::kBuckets>>();
        }
        std::array<std::uint64_t, Histogram::kBuckets> diff{};
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          const std::uint64_t cur = row.histogram.bucket_count(i);
          diff[i] = cur - (*s.prev_buckets)[i];
          (*s.prev_buckets)[i] = cur;
        }
        const WindowStats w = window_stats(diff, cfg_.latency_target_ns);
        SeriesPoint p;
        p.t = now;
        p.value = static_cast<double>(w.count);
        p.count = w.count;
        p.p50 = w.p50;
        p.p99 = w.p99;
        p.p999 = w.p999;
        p.p9999 = w.p9999;
        p.over = w.over;
        s.points.push(p);
        if (rack >= 0) {
          RackAgg& agg = racks[{row.name, rack}];
          agg.kind = SeriesKind::kHistogram;
          for (std::size_t i = 0; i < Histogram::kBuckets; ++i) agg.buckets[i] += diff[i];
        }
        break;
      }
    }
  }

  for (const auto& [key, agg] : racks) {
    const metrics::Labels labels{{"rack", std::to_string(key.second)}};
    Series& s = upsert(key.first, labels, agg.kind, true);
    SeriesPoint p;
    p.t = now;
    if (agg.kind == SeriesKind::kHistogram) {
      const WindowStats w = window_stats(agg.buckets, cfg_.latency_target_ns);
      p.value = static_cast<double>(w.count);
      p.count = w.count;
      p.p50 = w.p50;
      p.p99 = w.p99;
      p.p999 = w.p999;
      p.p9999 = w.p9999;
      p.over = w.over;
    } else {
      p.value = agg.value;
    }
    s.points.push(p);
  }
}

void TimeSeriesRecorder::add_source(std::function<void(sim::SimTime)> source) {
  sources_.push_back(std::move(source));
}

void TimeSeriesRecorder::set_tick_hook(std::function<void(sim::SimTime)> hook) {
  tick_hook_ = std::move(hook);
}

void TimeSeriesRecorder::set_rack_of(std::function<int(const std::string&)> rack_of) {
  rack_of_ = std::move(rack_of);
}

void TimeSeriesRecorder::remember_key(std::uint64_t key, const std::string& name) {
  if (key_names_.count(key)) return;
  key_names_[key] = name;
  // Bounded: prune names whose keys fell out of both summaries.
  if (key_names_.size() > 8 * (hot_blocks_.capacity() + hot_tenants_.capacity())) {
    for (auto it = key_names_.begin(); it != key_names_.end();) {
      if (!hot_blocks_.tracked(it->first) && !hot_tenants_.tracked(it->first)) {
        it = key_names_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void TimeSeriesRecorder::record_block_access(const std::string& name,
                                             std::uint64_t bytes) {
  const std::uint64_t key = fnv1a(name);
  hot_blocks_.add(key, bytes);
  if (hot_blocks_.tracked(key)) remember_key(key, name);
}

void TimeSeriesRecorder::record_tenant_bytes(const std::string& tenant,
                                             std::uint64_t bytes) {
  const std::uint64_t key = fnv1a(tenant);
  hot_tenants_.add(key, bytes);
  if (hot_tenants_.tracked(key)) remember_key(key, tenant);
}

std::string TimeSeriesRecorder::key_name(std::uint64_t key) const {
  auto it = key_names_.find(key);
  if (it != key_names_.end()) return it->second;
  if (key_namer_) return key_namer_(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(key));
  return buf;
}

void TimeSeriesRecorder::set_key_namer(std::function<std::string(std::uint64_t)> namer) {
  key_namer_ = std::move(namer);
}

std::size_t TimeSeriesRecorder::approx_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& [key, s] : series_) {
    bytes += key.capacity() + sizeof(Series) + s.name.capacity();
    for (const auto& [k, v] : s.labels) bytes += k.capacity() + v.capacity();
    bytes += s.points.capacity() * sizeof(SeriesPoint);
    if (s.prev_buckets) bytes += sizeof(*s.prev_buckets);
  }
  bytes += (hot_blocks_.capacity() + hot_tenants_.capacity()) * sizeof(SpaceSaving::Entry);
  for (const auto& [k, v] : key_names_) bytes += sizeof(k) + v.capacity();
  return bytes;
}

}  // namespace vread::obs
