// Deterministic pseudo-random generation for workloads and payloads.
//
// SplitMix64: tiny, fast, and identical on every platform — the simulator
// never uses std::mt19937 or OS entropy so that runs are reproducible from
// the seed alone.
#pragma once

#include <cstdint>

namespace vread::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  std::uint64_t state_;
};

}  // namespace vread::sim
