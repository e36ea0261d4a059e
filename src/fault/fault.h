// Fault-injection registry for the vRead stack.
//
// Every layer the paper's degradation argument touches exposes *named
// fault points* (see `points` below): loop-mount refresh failures and
// stale-dentry windows in fs::LoopMount, request timeout/corruption on the
// shared-memory ring in virt::ShmChannel, daemon restart (descriptor-table
// loss), remote-peer unreachable and RDMA-link-down in core::VReadDaemon.
// A fault point is a single `should_fire(point)` call on the code path; the
// registry decides — deterministically (every Nth hit, after a warmup,
// with a fire budget) or probabilistically from a seeded SplitMix64 stream
// — whether the fault triggers, and counts both hits and fires so tests
// and benches can assert observability.
//
// The registry is process-global (the simulator is single-threaded) and
// deterministic: with nothing armed, should_fire() never touches the RNG,
// so fault-free runs are byte-identical to builds without this subsystem.
// A baseline schedule can be injected from the environment
// (VREAD_FAULT_SCHEDULE, see load_schedule() for the grammar), which is
// how CI runs the degradation suite under a deterministic fault load.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/random.h"

namespace vread::fault {

// How an armed fault point decides to trigger. Deterministic knobs win
// over `probability` when both are set; armed with neither, every
// eligible hit triggers (bounded only by `after`/`max_fires`).
struct Spec {
  // Probabilistic mode: trigger each hit with this probability (seeded,
  // deterministic stream). Ignored when `every` is set.
  double probability = 0.0;
  // Deterministic mode: trigger on every Nth eligible hit (1 = always).
  std::uint64_t every = 0;
  // Skip the first `after` hits entirely (warmup window).
  std::uint64_t after = 0;
  // Stop triggering after this many fires (budgeted faults).
  std::uint64_t max_fires = UINT64_MAX;
};

struct PointState {
  Spec spec{};
  bool armed = false;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

// A registered fault point with static storage. It caches its registry
// state, resolved once per registry generation, so an unarmed hit is one
// compare and one increment.
class Point {
 public:
  constexpr explicit Point(const char* name) : name_(name) {}
  Point(const Point&) = delete;
  Point& operator=(const Point&) = delete;
  operator std::string() const { return name_; }

 private:
  friend class Registry;
  const char* name_;
  std::uint64_t gen_ = 0;  // registry generation `state_` belongs to
  PointState* state_ = nullptr;
};

// The well-known fault points. Layers fire these; tests arm them by name
// (a Point converts to its name).
namespace points {
// fs::LoopMount::refresh() silently fails: the snapshot stays stale.
inline constinit Point kMountRefreshFail{"fs.loop.refresh_fail"};
// fs::LoopMount::lookup() misses as if the dentry cache were mid-refresh.
inline constinit Point kMountStaleLookup{"fs.loop.stale_lookup"};
// virt::ShmChannel::call(): the request is lost; the guest times out.
inline constinit Point kShmTimeout{"virt.shm.timeout"};
// virt::ShmChannel::call(): the response fails validation on arrival.
inline constinit Point kShmCorrupt{"virt.shm.corrupt"};
// core::VReadDaemon restarts before serving a request: the descriptor
// table is lost (clients' vfds dangle -> kVReadErrBadFd on next use).
inline constinit Point kDaemonCrash{"core.daemon.crash"};
// Daemon-to-daemon request: the remote peer is unreachable.
inline constinit Point kPeerDown{"core.daemon.peer_down"};
// RDMA link down: remote ops fail over to the user-space TCP transport.
inline constinit Point kRdmaDown{"core.daemon.rdma_down"};
// QoS admission control sheds the request as if the tenant's queue were
// at cap (kVReadErrOverloaded to the client), regardless of actual depth.
inline constinit Point kAdmissionShed{"core.daemon.admission_shed"};
// hdfs::DataNode::handle_read answers "block missing" once, as if the
// block file vanished mid-serve (transient store trouble); the client's
// replica failover / pread retry machinery must absorb it.
inline constinit Point kDatanodeReadFail{"hdfs.datanode.read_fail"};
// core::PeerCacheDirectory: a copyset invalidation notification is lost —
// the holder keeps its (now unreachable) cached bytes; the directory's
// epoch filter must keep it off every later lookup.
inline constinit Point kPeerCacheInvalidateLost{"core.peercache.invalidate_lost"};
// core::PeerCacheDirectory::lookup returns stale copyset members (as if
// the shard owner answered from a pre-invalidation snapshot); the
// requester's fetch-time epoch check must reject their bytes.
inline constinit Point kPeerCacheStalePeer{"core.peercache.stale_peer"};
// core::VReadDaemon peer-cache fetch: the chosen holder dies mid-fetch;
// the requester must fall back to the next holder / the disk path.
inline constinit Point kPeerCachePeerDown{"core.peercache.peer_down"};
// hdfs::DfsInputStream hedging: the second leg is lost at launch (never
// issued); the primary must still complete the read alone.
inline constinit Point kHedgeLegLost{"hdfs.client.hedge_leg_lost"};
// hdfs::DfsInputStream hedging: the hedge timer fires late (both legs run
// long), racing the primary's completion against hedge issuance.
inline constinit Point kHedgeBothSlow{"hdfs.client.hedge_both_slow"};
// core::VReadDaemon: the loser's cancel flag is ignored for one check, as
// if the cancel raced the completion — the leg runs (and charges) to the
// end and the un-charge never happens for it.
inline constinit Point kHedgeCancelRace{"core.daemon.hedge_cancel_race"};
// core::BlockCache::lookup: one byte of the covering entry is flipped just
// before the hit is verified, as if cached memory rotted. The re-hash must
// catch it: the entry is dropped and the lookup reports a miss.
inline constinit Point kCacheCorrupt{"core.cache.corrupt"};
}  // namespace points

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Arms (or re-arms) a fault point. Hit/fire counters are preserved.
  void arm(const std::string& point, Spec spec);
  void disarm(const std::string& point);
  bool armed(const std::string& point) const;

  // Disarms everything, zeroes all counters, reseeds the RNG, and
  // re-applies the baseline schedule (VREAD_FAULT_SCHEDULE) if one was
  // installed — i.e. returns the registry to its process-startup state.
  void reset();

  // The fault point itself: records a hit and reports whether the armed
  // spec (if any) says the fault triggers now. The name overload serves
  // ad-hoc points; both share one decision.
  bool should_fire(Point& point) {
    if (point.gen_ != gen_) {
      point.state_ = &points_[point.name_];
      point.gen_ = gen_;
    }
    const std::uint64_t hit = ++point.state_->hits;
    return point.state_->armed && decide(*point.state_, hit, point.name_);
  }
  bool should_fire(const std::string& point);

  std::uint64_t hits(const std::string& point) const;
  std::uint64_t fires(const std::string& point) const;

  struct Row {
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    bool armed = false;
  };
  // Every point ever hit or armed, sorted by name (for metrics tables).
  std::vector<Row> rows() const;

  // Parses and arms a schedule string. Grammar (whitespace-free):
  //   schedule := entry (';' entry)*
  //   entry    := point ':' knob (',' knob)*
  //   knob     := 'p=' float | 'every=' N | 'after=' N | 'max=' N
  // Example: "virt.shm.timeout:every=13;core.daemon.crash:after=50,max=1"
  // Throws std::invalid_argument on malformed input.
  void load_schedule(const std::string& schedule);

  // Installs `schedule` as the baseline that reset() restores (empty
  // string clears the baseline), then resets.
  void set_baseline(const std::string& schedule);

  void seed(std::uint64_t s) {
    seed_ = s;
    rng_ = sim::Rng(s);
  }

  // Observation hook: invoked with the point name each time a fault
  // FIRES (not on mere hits). The observability plane routes this into
  // flight recorders. The hook must be passive — it runs inside
  // should_fire() on the simulation thread and must not touch the fault
  // registry or post events. Pass nullptr (or {}) to uninstall.
  void set_fire_hook(std::function<void(const std::string& point)> hook) {
    fire_hook_ = std::move(hook);
  }

 private:
  PointState& state(const std::string& point) { return points_[point]; }
  bool decide(PointState& st, std::uint64_t hit, const char* point);

  static constexpr std::uint64_t kDefaultSeed = 42;
  static std::uint64_t next_generation();

  std::map<std::string, PointState> points_;
  // Bumped by reset(), which drops every PointState; unique across
  // registries, so a Point never trusts a pointer into another one.
  std::uint64_t gen_ = next_generation();
  std::uint64_t seed_ = kDefaultSeed;
  sim::Rng rng_{kDefaultSeed};
  std::string baseline_;
  std::function<void(const std::string&)> fire_hook_;
};

// The process-global registry. First use applies VREAD_FAULT_SCHEDULE (and
// VREAD_FAULT_SEED) from the environment as the baseline.
Registry& registry();

// RAII arming for tests: arms on construction, restores the registry to
// its baseline on destruction.
class ScopedFault {
 public:
  ScopedFault(const std::string& point, Spec spec) { registry().arm(point, spec); }
  ~ScopedFault() { registry().reset(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

}  // namespace vread::fault
