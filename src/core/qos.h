// Multi-tenant QoS for the vRead daemon: weighted fair dispatch and
// overload protection (DESIGN.md §11).
//
// PR 4 made the shortcut path concurrent, which also made it contendable:
// every client VM funnels into one daemon-side worker pool, one shm slot
// budget and one shared BlockCache, so a single aggressive tenant can
// monopolize all three. This layer puts a scheduler between the per-VM
// request pumps and the worker pool:
//
//   * accounting — every request is attributed to a tenant (the client VM
//     by default; streams may override via ShmRequest::tenant);
//   * weighted deficit round robin — workers dequeue in DRR order, with
//     request cost measured in payload bytes (floored for control ops), so
//     achieved throughput shares converge to the configured weights under
//     saturation while a lone tenant still gets plain FIFO;
//   * admission control — a per-tenant cap on queued requests; requests
//     over the cap are shed immediately with a typed retryable Status
//     (kOverloaded) instead of queueing unboundedly, and the shed is
//     observable through vread_tenant_shed_total.
//
// Everything here is deterministic: dispatch order is a pure function of
// arrival order, weights and sizes — no clocks, no randomness.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/registry.h"
#include "obs/flight_recorder.h"
#include "sim/name.h"
#include "sim/sync.h"
#include "virt/shm_channel.h"

namespace vread::core {

// Relative throughput share of a tenant with no entry in QosConfig::weights.
inline constexpr double kDefaultWeight = 1.0;

// QoS tuning, embedded in DaemonConfig. Defaults keep a single tenant
// byte-identical in behavior to plain FIFO and never shed (the per-tenant
// queue is naturally bounded by the channel's shm_max_outstanding, which
// stays below max_queue unless a sweep raises it).
struct QosConfig {
  // Master switch: false restores the pre-QoS per-client serve loops
  // (used by the ablation bench as the "no isolation" arm).
  bool enabled = true;

  // Admission cap on requests queued per tenant (0 = unbounded). A request
  // arriving with the tenant's queue at the cap is shed with kOverloaded.
  std::size_t max_queue = 64;

  // Deadline-aware EDF lane (DESIGN.md §16): order deadline-bearing
  // requests earliest-deadline-first WITHIN each tenant's queue, so a
  // tenant's own urgent reads overtake its bulk scans without touching
  // cross-tenant DRR fairness. Requests with deadline == 0 keep FIFO
  // order behind every deadline-bearing one. Off = plain FIFO per tenant.
  bool edf = false;

  // Relative throughput shares. Tenants absent from `weights` get
  // kDefaultWeight; values are clamped to a small positive floor.
  std::map<std::string, double> weights;

  // Per-tenant overrides of DaemonConfig::shm_max_outstanding, applied to
  // the tenant VM's channel at attach time.
  std::map<std::string, std::size_t> shm_outstanding;

  double weight(const std::string& tenant) const {
    auto it = weights.find(tenant);
    const double w = it == weights.end() ? kDefaultWeight : it->second;
    return w < 1e-3 ? 1e-3 : w;
  }
};

// Per-tenant accounting snapshot (DaemonStats::tenants, vreadstat).
struct QosTenantStats {
  std::string tenant;
  double weight = 1.0;
  std::uint64_t requests = 0;  // admitted
  std::uint64_t bytes = 0;     // payload bytes delivered
  std::uint64_t uncharged = 0; // bytes un-charged for cancelled hedge legs
  std::uint64_t fill_bytes = 0; // byte-share of merged backing-store fills
  std::uint64_t shed = 0;      // rejected by admission control
  std::uint64_t queued = 0;    // currently waiting for a worker
  std::int64_t queue_high = 0; // deepest the queue ever got
};

class QosScheduler {
 public:
  // One unit of daemon work: the request plus the channel it answers on.
  struct Item {
    virt::ShmRequest req;
    virt::ShmChannel* channel = nullptr;
  };

  QosScheduler(sim::Simulation& sim, QosConfig config, std::string host);
  QosScheduler(const QosScheduler&) = delete;
  QosScheduler& operator=(const QosScheduler&) = delete;

  // Admission + enqueue. Returns false when the tenant's queue is at cap
  // (or the core.daemon.admission_shed fault fires): the item is dropped,
  // vread_tenant_shed_total increments, and the caller answers the client
  // with kOverloaded. FIFO within a tenant.
  bool submit(sim::Name tenant, Item item);

  // Dequeues the next item in weighted-DRR order; suspends until one is
  // queued. Any number of workers may wait concurrently (FIFO wakeups).
  sim::Task next(Item& out);

  // Payload bytes delivered for `tenant` (called by the daemon's stream
  // paths as chunks land in the ring).
  void account_bytes(sim::Name tenant, std::uint64_t n);

  // Un-charges payload bytes a cancelled hedge leg had already delivered
  // (DESIGN.md §16): the winner's bytes are the read's true cost, so the
  // loser's partial stream must not count against the tenant's share. The
  // charge and un-charge are separate monotonic counters — effective
  // usage is bytes(t) - uncharged(t) — so both sides stay auditable.
  void uncharge_bytes(sim::Name tenant, std::uint64_t n);

  // Backing-store cost of a merged fill, attributed to `tenant`. The
  // coalescing leader splits the fill's disk/wire bytes across every
  // tenant that shared it (CoalesceMap::Fill::tenants), so per-tenant
  // charges always sum to the bytes the backing store actually served —
  // fairness is preserved under merging instead of billing the leader
  // for everybody's fill.
  void charge_fill(sim::Name tenant, std::uint64_t n);

  // Observability (DESIGN.md §14): sheds are recorded as flight events
  // (tenant, queue depth at rejection) when a recorder is wired. Passive.
  void set_flight_recorder(obs::FlightRecorder* fr) { flight_ = fr; }

  std::uint64_t queued(const std::string& tenant) const;
  std::uint64_t shed(const std::string& tenant) const;
  std::uint64_t bytes(const std::string& tenant) const;
  std::uint64_t uncharged(const std::string& tenant) const;
  std::uint64_t fill_bytes(const std::string& tenant) const;
  // EDF lane observability (zero while config().edf is false).
  std::uint64_t edf_reordered() const;
  std::uint64_t edf_dispatch_ontime() const;
  std::uint64_t edf_dispatch_late() const;
  const QosConfig& config() const { return config_; }
  std::vector<QosTenantStats> stats() const;

 private:
  struct Tenant {
    sim::Name name;
    double weight = 1.0;
    std::uint64_t deficit = 0;
    bool in_active = false;
    std::deque<Item> queue;
    metrics::Counter* requests = nullptr;
    metrics::Counter* bytes = nullptr;
    metrics::Counter* uncharged = nullptr;
    metrics::Counter* fill_bytes = nullptr;
    metrics::Counter* shed = nullptr;
    metrics::Gauge* depth = nullptr;
  };

  Tenant& tenant(sim::Name name);
  std::uint64_t cost(const virt::ShmRequest& req) const;

  QosConfig config_;
  std::string host_;
  sim::Simulation& sim_;
  // Stable addresses: the active ring and in-flight dispatches hold
  // Tenant pointers across lazy tenant creation.
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  // The same tenants by interned name: the per-request lookup. Pointer-
  // hashed and never iterated (stats() walks tenants_ in name order).
  std::unordered_map<sim::Name, Tenant*, sim::Name::Hash> index_;
  std::deque<Tenant*> active_;  // tenants with queued work, DRR ring order
  sim::Semaphore ready_;        // counts queued items across all tenants
  metrics::MetricGroup metrics_;
  // EDF lane counters (host-level; created lazily so an EDF-off scheduler
  // registers nothing new).
  metrics::Counter* edf_reordered_ = nullptr;
  metrics::Counter* edf_ontime_ = nullptr;
  metrics::Counter* edf_late_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace vread::core
