#include "fault/fault.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace vread::fault {

void Registry::arm(const std::string& point, Spec spec) {
  PointState& st = state(point);
  st.spec = spec;
  st.armed = true;
}

void Registry::disarm(const std::string& point) {
  auto it = points_.find(point);
  if (it != points_.end()) it->second.armed = false;
}

bool Registry::armed(const std::string& point) const {
  auto it = points_.find(point);
  return it != points_.end() && it->second.armed;
}

void Registry::reset() {
  points_.clear();
  gen_ = next_generation();
  rng_ = sim::Rng(seed_);
  if (!baseline_.empty()) load_schedule(baseline_);
}

std::uint64_t Registry::next_generation() {
  static std::atomic<std::uint64_t> last{0};
  return ++last;
}

bool Registry::should_fire(const std::string& point) {
  PointState& st = state(point);
  const std::uint64_t hit = ++st.hits;
  return st.armed && decide(st, hit, point.c_str());
}

bool Registry::decide(PointState& st, std::uint64_t hit, const char* point) {
  const Spec& s = st.spec;
  if (hit <= s.after) return false;
  if (st.fires >= s.max_fires) return false;
  bool fire = false;
  if (s.every > 0) {
    fire = (hit - s.after - 1) % s.every == 0;
  } else if (s.probability > 0.0) {
    fire = rng_.uniform01() < s.probability;
  } else {
    // Armed with no rate knob (e.g. "point:after=50,max=1"): every
    // eligible hit fires, bounded only by the warmup and fire budget.
    fire = true;
  }
  if (fire) {
    ++st.fires;
    if (fire_hook_) fire_hook_(point);
  }
  return fire;
}

std::uint64_t Registry::hits(const std::string& point) const {
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

std::uint64_t Registry::fires(const std::string& point) const {
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

std::vector<Registry::Row> Registry::rows() const {
  std::vector<Row> out;
  out.reserve(points_.size());
  for (const auto& [name, st] : points_) {
    out.push_back(Row{name, st.hits, st.fires, st.armed});
  }
  return out;
}

void Registry::load_schedule(const std::string& schedule) {
  std::size_t pos = 0;
  while (pos < schedule.size()) {
    std::size_t end = schedule.find(';', pos);
    if (end == std::string::npos) end = schedule.size();
    const std::string entry = schedule.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::invalid_argument("fault schedule entry missing ':': " + entry);
    }
    const std::string point = entry.substr(0, colon);
    Spec spec;
    std::size_t kpos = colon + 1;
    while (kpos <= entry.size()) {
      std::size_t kend = entry.find(',', kpos);
      if (kend == std::string::npos) kend = entry.size();
      const std::string knob = entry.substr(kpos, kend - kpos);
      kpos = kend + 1;
      const std::size_t eq = knob.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("fault schedule knob missing '=': " + knob);
      }
      const std::string key = knob.substr(0, eq);
      const std::string val = knob.substr(eq + 1);
      try {
        if (key == "p") {
          spec.probability = std::stod(val);
        } else if (key == "every") {
          spec.every = std::stoull(val);
        } else if (key == "after") {
          spec.after = std::stoull(val);
        } else if (key == "max") {
          spec.max_fires = std::stoull(val);
        } else {
          throw std::invalid_argument("unknown fault schedule knob: " + key);
        }
      } catch (const std::invalid_argument&) {
        throw;
      } catch (const std::exception&) {
        throw std::invalid_argument("bad fault schedule value: " + knob);
      }
      if (kpos > entry.size()) break;
    }
    arm(point, spec);
  }
}

void Registry::set_baseline(const std::string& schedule) {
  baseline_ = schedule;
  reset();
}

Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry();
    if (const char* seed = std::getenv("VREAD_FAULT_SEED")) {
      r->seed(std::strtoull(seed, nullptr, 10));
    }
    if (const char* sched = std::getenv("VREAD_FAULT_SCHEDULE")) {
      try {
        r->set_baseline(sched);
      } catch (const std::invalid_argument& e) {
        // A typo'd env var shouldn't abort with an uncaught exception;
        // fail fast with a plain diagnostic instead.
        std::fprintf(stderr, "vread: bad VREAD_FAULT_SCHEDULE: %s\n", e.what());
        std::exit(2);
      }
    }
    return r;
  }();
  return *instance;
}

}  // namespace vread::fault
