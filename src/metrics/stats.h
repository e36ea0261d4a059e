// Small statistics helpers used by benches and tests: throughput, rates
// and percent changes.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace vread::metrics {

// Bytes over a simulated duration, reported in MB/s (1 MB = 1e6 bytes, as
// the paper's MBps axes use decimal megabytes).
inline double throughput_mbps(std::uint64_t bytes, sim::SimTime elapsed) {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(bytes) / sim::to_seconds(elapsed) / 1e6;
}

// Rate of events per second over a simulated duration.
inline double rate_per_sec(std::uint64_t events, sim::SimTime elapsed) {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(events) / sim::to_seconds(elapsed);
}

// Percent improvement of `better` over `base` (positive = better is higher).
inline double percent_gain(double base, double better) {
  if (base == 0.0) return 0.0;
  return (better - base) / base * 100.0;
}

// Percent reduction of `smaller` relative to `base` (positive = smaller is lower).
inline double percent_reduction(double base, double smaller) {
  if (base == 0.0) return 0.0;
  return (base - smaller) / base * 100.0;
}

}  // namespace vread::metrics
