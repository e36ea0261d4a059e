// Replica-aware read routing (docs/TOPOLOGY.md §routing).
//
// ReplicaSelector ranks a block's candidate replicas by path cost tier
// (same-host shortcut >> same-rack daemon >> cross-rack TCP) and, within a
// tier, by per-daemon load feedback piggybacked on read completions. The
// selector is pure deterministic logic — no metrics registry, no sim
// engine dependency beyond SimTime — so the detailed simulator (DfsClient)
// and the flow-level cluster model (FlowSim) share one implementation and
// one set of policy semantics. The only side channel is an optional
// passive flight recorder (set_flight_recorder) that samples interesting
// route choices for post-mortems; it never influences a decision.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/topology.h"
#include "obs/flight_recorder.h"
#include "sim/random.h"
#include "sim/time.h"

namespace vread::cluster {

enum class RoutePolicy : std::uint8_t {
  // Reproduces the pre-topology DfsClient behavior exactly: a co-located
  // (same-host) replica when one exists, otherwise the first location in
  // pipeline order. Rack- and load-blind.
  kStatic = 0,
  // Uniform pick over all replicas (the classic "spread the load, ignore
  // the network" strawman).
  kRandom = 1,
  // Tier-major ranking with load feedback and seeded tie-breaking.
  kReplicaAware = 2,
};

const char* route_policy_name(RoutePolicy p);
bool parse_route_policy(const std::string& s, RoutePolicy& out);

struct RouteConfig {
  RoutePolicy policy = RoutePolicy::kStatic;
};

// Seed of the tie-break rng stream.
inline constexpr std::uint64_t kRouteSeed = 1;

// Load feedback older than this is discarded (treated as "no signal"), so
// a daemon that stops being chosen — and therefore stops producing
// completions — sheds its stale overload verdict after one interval.
inline constexpr sim::SimTime kFeedbackTtl = sim::ms(50);

// A fresh queue-depth report at or above this marks the daemon overloaded
// for ranking purposes (client-observed kOverloaded statuses mark it
// unconditionally).
inline constexpr std::uint64_t kOverloadQueue = 32;

// Converts in-flight bytes into queue-depth units when scoring load:
// score = queue_depth + inflight_bytes / kBytesPerLoadUnit.
inline constexpr std::uint64_t kBytesPerLoadUnit = 1ULL << 20;

// One daemon's load signal, as piggybacked on a read completion. Wire cost
// is zero by design: the fields ride the existing completion message the
// way trace contexts already do.
struct DaemonLoad {
  std::uint64_t queue_depth = 0;     // requests in flight in the daemon
  std::uint64_t inflight_bytes = 0;  // payload bytes being served
  bool overloaded = false;           // daemon shed a request (kOverloaded)
};

class ReplicaSelector {
 public:
  struct Candidate {
    const std::string* id;  // datanode id (owned by the caller)
    PathTier tier;
  };

  explicit ReplicaSelector(RouteConfig cfg) : cfg_(cfg), rng_(kRouteSeed) {}

  const RouteConfig& config() const { return cfg_; }

  // Picks the index of the replica to read. Deterministic given the call
  // sequence: ties within the winning rank are broken by the seeded rng.
  std::size_t choose(sim::SimTime now, const std::vector<Candidate>& candidates);

  // Load feedback from a completed read against `dn`.
  void report(sim::SimTime now, const std::string& dn, DaemonLoad load);

  // A read against `dn` came back kOverloaded (shed by admission
  // control): mark it overloaded immediately — don't wait for a
  // completion that may never arrive.
  void report_overload(sim::SimTime now, const std::string& dn);

  // Plain counters (callers fold these into the metrics registry).
  std::uint64_t chosen(PathTier t) const { return chosen_[static_cast<int>(t)]; }
  std::uint64_t overload_avoided() const { return overload_avoided_; }
  std::uint64_t feedback_reports() const { return feedback_reports_; }
  // Whether the most recent choose() skipped an overloaded replica (lets a
  // caller sharing this selector attribute the event to its own metrics).
  bool last_avoided_overload() const { return last_avoided_; }

  // Observability (DESIGN.md §14): route choices as flight events. To
  // keep the hot path allocation-light at cluster scale, only the
  // INTERESTING choices are recorded — an overload avoidance, a change
  // of winning tier versus the previous choice, and a 1-in-256 heartbeat
  // (a fixed-size ring would overwrite uniform traffic anyway). Passive;
  // the selector stays free of registry/engine dependencies.
  void set_flight_recorder(obs::FlightRecorder* fr) { flight_ = fr; }

 private:
  struct Feedback {
    DaemonLoad load;
    sim::SimTime at = 0;
  };

  // (overloaded, score) for one candidate under the current feedback.
  void load_of(sim::SimTime now, const std::string& dn, bool& overloaded,
               std::uint64_t& score) const;

  RouteConfig cfg_;
  sim::Rng rng_;
  std::unordered_map<std::string, Feedback> feedback_;
  std::uint64_t chosen_[3] = {0, 0, 0};
  std::uint64_t overload_avoided_ = 0;
  std::uint64_t feedback_reports_ = 0;
  bool last_avoided_ = false;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint64_t choices_ = 0;       // total choose() calls (heartbeat sampling)
  int last_tier_ = -1;              // tier of the previous pick (change detection)
};

}  // namespace vread::cluster
