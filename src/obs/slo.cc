#include "obs/slo.h"

#include "obs/flight_recorder.h"

namespace vread::obs {

SloMonitor::SloMonitor(SloConfig cfg, TimeSeriesRecorder& recorder,
                       metrics::Registry& reg)
    : cfg_(std::move(cfg)),
      recorder_(recorder),
      metrics_(reg),
      latency_alerts_(metrics_.counter("vread_slo_alerts_total", {{"slo", "read_latency"}},
                                       "Burn-rate alerts fired for the read-latency SLO")),
      firing_g_(metrics_.gauge("vread_slo_firing", {},
                               "SLO scopes currently burning above threshold")) {
  recorder_.set_tick_hook([this](sim::SimTime now) { evaluate(now); });
}

SloMonitor::Burn SloMonitor::latency_burn(const TimeSeriesRecorder::Series& s,
                                          sim::SimTime now) const {
  std::uint64_t over_l = 0, count_l = 0, over_s = 0, count_s = 0;
  const sim::SimTime lo_l = now - cfg_.long_window;
  const sim::SimTime lo_s = now - cfg_.short_window;
  s.points.for_each([&](const SeriesPoint& p) {
    if (p.t <= lo_l || p.t > now) return;
    over_l += p.over;
    count_l += p.count;
    if (p.t > lo_s) {
      over_s += p.over;
      count_s += p.count;
    }
  });
  Burn b;
  if (count_l > 0) {
    b.burn_long = static_cast<double>(over_l) / static_cast<double>(count_l) /
                  kLatencyBudget;
  }
  if (count_s > 0) {
    b.burn_short = static_cast<double>(over_s) / static_cast<double>(count_s) /
                   kLatencyBudget;
  }
  return b;
}

void SloMonitor::gate(sim::SimTime now, const std::string& slo,
                      const std::string& scope, const Burn& b) {
  bool& firing = firing_[slo + "|" + scope];
  const bool hot = b.burn_long >= kBurnThreshold && b.burn_short >= kBurnThreshold;
  if (hot && !firing) {
    firing = true;
    SloAlert a;
    a.t = now;
    a.slo = slo;
    a.scope = scope;
    a.burn_long = b.burn_long;
    a.burn_short = b.burn_short;
    alerts_.push_back(a);
    latency_alerts_.inc();
    if (flight_) {
      flight_->record(now, FlightEventKind::kSloAlert, slo, scope,
                      static_cast<std::uint64_t>(b.burn_long * 1000),
                      static_cast<std::uint64_t>(b.burn_short * 1000));
    }
  } else if (firing && b.burn_short < kBurnThreshold) {
    firing = false;
  }
}

void SloMonitor::evaluate(sim::SimTime now) {
  for (const auto& [key, s] : recorder_.series()) {
    if (s.kind == SeriesKind::kHistogram && s.name == kLatencySeries) {
      gate(now, "read_latency", key, latency_burn(s, now));
    }
  }
  std::int64_t hot = 0;
  for (const auto& [scope, f] : firing_) {
    if (f) ++hot;
  }
  firing_g_.set(hot);
}

std::size_t SloMonitor::firing() const {
  std::size_t hot = 0;
  for (const auto& [scope, f] : firing_) {
    if (f) ++hot;
  }
  return hot;
}

}  // namespace vread::obs
