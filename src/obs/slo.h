// Multi-window burn-rate SLO monitor (DESIGN.md §14).
//
// The read-latency SLO, evaluated at every recorder tick from the
// ring-buffered series — never from simulation state directly: at most
// `kLatencyBudget` of reads in a window may exceed the recorder's latency
// target. The burn rate of a window is (violating fraction) / budget —
// burn 1.0 consumes the error budget exactly at the sustainable rate, burn
// 4.0 four times as fast.
//
// An alert FIRES when both the long and the short window burn above
// `kBurnThreshold` (SRE-style multi-window gating: the long window proves
// the episode is material, the short window proves it is still
// happening), and CLEARS when the short window drops back under. Alerts
// land in three places: the alert list (timeline export), the wired
// flight recorder, and the vread_slo_* registry counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics/registry.h"
#include "obs/timeseries.h"
#include "sim/time.h"

namespace vread::obs {

class FlightRecorder;

// Histogram series name carrying the read-latency SLO (per-host and
// per-rack rollup instances are each evaluated as their own scope).
inline constexpr char kLatencySeries[] = "vread_daemon_read_latency_ns";
// Allowed fraction of window reads above the latency target.
inline constexpr double kLatencyBudget = 0.01;
// Burn rate both windows must reach for an alert to fire.
inline constexpr double kBurnThreshold = 4.0;

struct SloConfig {
  // Burn-rate windows.
  sim::SimTime long_window = sim::ms(1000);
  sim::SimTime short_window = sim::ms(100);
};

struct SloAlert {
  sim::SimTime t = 0;
  std::string slo;    // "read_latency"
  std::string scope;  // the series key the alert fired for
  double burn_long = 0;
  double burn_short = 0;
};

class SloMonitor {
 public:
  SloMonitor(SloConfig cfg, TimeSeriesRecorder& recorder,
             metrics::Registry& reg = metrics::registry());

  const SloConfig& config() const { return cfg_; }

  // Evaluates every scope; designed to run as the recorder's tick hook.
  void evaluate(sim::SimTime now);

  void set_flight_recorder(FlightRecorder* fr) { flight_ = fr; }

  const std::vector<SloAlert>& alerts() const { return alerts_; }
  // Scopes currently burning above threshold.
  std::size_t firing() const;

 private:
  struct Burn {
    double burn_long = 0;
    double burn_short = 0;
  };
  Burn latency_burn(const TimeSeriesRecorder::Series& s, sim::SimTime now) const;
  void gate(sim::SimTime now, const std::string& slo, const std::string& scope,
            const Burn& b);

  SloConfig cfg_;
  TimeSeriesRecorder& recorder_;
  metrics::MetricGroup metrics_;
  metrics::Counter& latency_alerts_;
  metrics::Gauge& firing_g_;
  FlightRecorder* flight_ = nullptr;
  std::vector<SloAlert> alerts_;
  std::map<std::string, bool> firing_;  // scope key -> currently firing
};

}  // namespace vread::obs
