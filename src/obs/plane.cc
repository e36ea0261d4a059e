#include "obs/plane.h"

#include <ostream>

#include "fault/fault.h"
#include "obs/timeline.h"

namespace vread::obs {

namespace {
// Ring capacity of each flight recorder the plane creates.
constexpr std::size_t kFlightEvents = 256;
}  // namespace

ObservabilityPlane::ObservabilityPlane(ObsConfig cfg, SloConfig slo)
    : recorder_(cfg), slo_(std::move(slo), recorder_) {
  slo_.set_flight_recorder(&flight("cluster"));
}

ObservabilityPlane::~ObservabilityPlane() {
  if (fault_hook_installed_) fault::registry().set_fire_hook(nullptr);
  detach();
}

FlightRecorder& ObservabilityPlane::flight(const std::string& who) {
  auto it = flights_by_name_.find(who);
  if (it != flights_by_name_.end()) return *it->second;
  FlightRecorder& fr = flight_storage_.emplace_back(who, kFlightEvents);
  flights_by_name_[who] = &fr;
  flight_order_.push_back(&fr);
  return fr;
}

std::vector<const FlightRecorder*> ObservabilityPlane::flights() const {
  return {flight_order_.begin(), flight_order_.end()};
}

void ObservabilityPlane::install_fault_hook(sim::Simulation& sim) {
  FlightRecorder& fr = flight("cluster");
  fault::registry().set_fire_hook([this, &sim, &fr](const std::string& point) {
    (void)this;
    fr.record(sim.now(), FlightEventKind::kFaultFired, point);
  });
  fault_hook_installed_ = true;
}

void ObservabilityPlane::write_timeline(std::ostream& os) const {
  obs::write_timeline(os, recorder_, &slo_, flights());
}

bool ObservabilityPlane::write_timeline_file(const std::string& path) const {
  return obs::write_timeline_file(path, recorder_, &slo_, flights());
}

std::vector<std::string> ObservabilityPlane::dump_troubled_flights(
    const std::string& prefix, const std::string& reason) const {
  std::vector<std::string> written;
  for (const FlightRecorder* fr : flight_order_) {
    if (!fr->troubled()) continue;
    const std::string path = prefix + "-" + fr->who() + ".json";
    if (fr->dump_file(path, reason)) written.push_back(path);
  }
  return written;
}

std::size_t ObservabilityPlane::approx_bytes() const {
  std::size_t bytes = sizeof(*this) + recorder_.approx_bytes();
  for (const FlightRecorder* fr : flight_order_) bytes += fr->approx_bytes();
  return bytes;
}

}  // namespace vread::obs
