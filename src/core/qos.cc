#include "core/qos.h"

#include <algorithm>

#include "fault/fault.h"

namespace vread::core {

namespace {
// Dispatch-cost floor in bytes: control ops (open/close/update) and tiny
// reads count this much, so a tenant cannot starve others with a flood of
// zero-byte operations.
constexpr std::uint64_t kMinRequestCost = 4096;
// DRR quantum: payload bytes added to a tenant's deficit each time the
// dispatcher visits it, scaled by the tenant's weight.
constexpr std::uint64_t kQuantumBytes = 256 * 1024;
}  // namespace

QosScheduler::QosScheduler(sim::Simulation& sim, QosConfig config, std::string host)
    : config_(std::move(config)), host_(std::move(host)), sim_(sim), ready_(sim, 0) {
  if (config_.edf) {
    const metrics::Labels labels{{"host", host_}};
    edf_reordered_ = &metrics_.counter(
        "vread_edf_reordered_total", labels,
        "Deadline-bearing submissions inserted ahead of queued work");
    edf_ontime_ = &metrics_.counter(
        "vread_edf_dispatch_ontime_total", labels,
        "Deadline-bearing requests dispatched at or before their deadline");
    edf_late_ = &metrics_.counter(
        "vread_edf_dispatch_late_total", labels,
        "Deadline-bearing requests dispatched after their deadline");
  }
}

QosScheduler::Tenant& QosScheduler::tenant(sim::Name name) {
  if (auto it = index_.find(name); it != index_.end()) return *it->second;
  auto t = std::make_unique<Tenant>();
  t->name = name;
  t->weight = config_.weight(name);
  const metrics::Labels labels{{"host", host_}, {"tenant", name}};
  t->requests = &metrics_.counter("vread_tenant_requests_total", labels,
                                  "Requests admitted to the QoS queue, by tenant");
  t->bytes = &metrics_.counter("vread_tenant_bytes_total", labels,
                               "Payload bytes delivered, by tenant");
  t->uncharged = &metrics_.counter(
      "vread_tenant_bytes_uncharged_total", labels,
      "Bytes un-charged for cancelled hedge legs, by tenant");
  t->fill_bytes = &metrics_.counter(
      "vread_tenant_fill_bytes_total", labels,
      "Byte-share of merged backing-store fills, by tenant");
  t->shed = &metrics_.counter("vread_tenant_shed_total", labels,
                              "Requests shed by admission control, by tenant");
  t->depth = &metrics_.gauge("vread_tenant_queue_depth", labels,
                             "Requests queued for a worker (high = deepest)");
  Tenant& ref = *t;
  tenants_[name] = std::move(t);
  index_.emplace(name, &ref);
  return ref;
}

std::uint64_t QosScheduler::cost(const virt::ShmRequest& req) const {
  // Control operations carry len == 0 and cost the floor; reads cost their
  // payload so DRR shares are byte-weighted regardless of request sizing.
  return std::max(req.len, kMinRequestCost);
}

bool QosScheduler::submit(sim::Name tenant_name, Item item) {
  Tenant& t = tenant(tenant_name);
  const std::size_t cap = config_.max_queue;
  if ((cap > 0 && t.queue.size() >= cap) ||
      fault::registry().should_fire(fault::points::kAdmissionShed)) {
    t.shed->inc();
    if (flight_) {
      flight_->record(sim_.now(), obs::FlightEventKind::kAdmissionShed, tenant_name,
                      host_, t.queue.size());
    }
    return false;
  }
  t.requests->inc();
  item.req.tenant = tenant_name;  // attribution is authoritative from here on
  if (config_.edf && item.req.deadline > 0) {
    // EDF lane: slot in before the first queued item with a later (or no)
    // deadline. Insertion is within THIS tenant's queue only, so DRR's
    // cross-tenant arithmetic — deficits, ring order, costs — never sees
    // the reordering. Ties and same-deadline arrivals stay FIFO.
    auto pos = t.queue.begin();
    for (; pos != t.queue.end(); ++pos) {
      const sim::SimTime d = pos->req.deadline;
      if (d == 0 || d > item.req.deadline) break;
    }
    if (pos != t.queue.end() && edf_reordered_) edf_reordered_->inc();
    t.queue.insert(pos, std::move(item));
  } else {
    t.queue.push_back(std::move(item));
  }
  t.depth->set(static_cast<std::int64_t>(t.queue.size()));
  if (!t.in_active) {
    t.in_active = true;
    active_.push_back(&t);
  }
  ready_.release();
  return true;
}

sim::Task QosScheduler::next(Item& out) {
  co_await ready_.acquire();
  // The semaphore guarantees at least one queued item somewhere; classic
  // DRR from here: visit the head of the active ring, top up its deficit
  // when exhausted, serve when the head request fits.
  for (;;) {
    Tenant* t = active_.front();
    if (t->queue.empty()) {
      // Defensive: a tenant drained by earlier dispatches in this round.
      active_.pop_front();
      t->in_active = false;
      t->deficit = 0;
      continue;
    }
    const std::uint64_t c = cost(t->queue.front().req);
    if (t->deficit < c) {
      // Quantum top-up scaled by weight (floored so a tiny weight still
      // makes progress), then move to the back of the ring.
      t->deficit += std::max<std::uint64_t>(
          1024, static_cast<std::uint64_t>(
                    static_cast<double>(kQuantumBytes) * t->weight));
      active_.pop_front();
      active_.push_back(t);
      continue;
    }
    t->deficit -= c;
    out = std::move(t->queue.front());
    t->queue.pop_front();
    if (config_.edf && out.req.deadline > 0) {
      // Dispatch-time deadline verdict: handed to a worker in time or
      // already late. (End-to-end misses are the client's to measure —
      // this counts what the scheduler could still influence.)
      (sim_.now() <= out.req.deadline ? edf_ontime_ : edf_late_)->inc();
    }
    t->depth->set(static_cast<std::int64_t>(t->queue.size()));
    if (t->queue.empty()) {
      // An idle tenant keeps no credit: deficits measure backlog service,
      // not accumulated idleness (standard DRR).
      active_.pop_front();
      t->in_active = false;
      t->deficit = 0;
    }
    co_return;
  }
}

void QosScheduler::account_bytes(sim::Name tenant_name, std::uint64_t n) {
  tenant(tenant_name).bytes->inc(n);
}

void QosScheduler::uncharge_bytes(sim::Name tenant_name, std::uint64_t n) {
  tenant(tenant_name).uncharged->inc(n);
}

void QosScheduler::charge_fill(sim::Name tenant_name, std::uint64_t n) {
  tenant(tenant_name).fill_bytes->inc(n);
}

std::uint64_t QosScheduler::queued(const std::string& tenant_name) const {
  auto it = tenants_.find(tenant_name);
  return it == tenants_.end() ? 0 : it->second->queue.size();
}

std::uint64_t QosScheduler::shed(const std::string& tenant_name) const {
  auto it = tenants_.find(tenant_name);
  return it == tenants_.end() ? 0 : it->second->shed->value();
}

std::uint64_t QosScheduler::bytes(const std::string& tenant_name) const {
  auto it = tenants_.find(tenant_name);
  return it == tenants_.end() ? 0 : it->second->bytes->value();
}

std::uint64_t QosScheduler::uncharged(const std::string& tenant_name) const {
  auto it = tenants_.find(tenant_name);
  return it == tenants_.end() ? 0 : it->second->uncharged->value();
}

std::uint64_t QosScheduler::edf_reordered() const {
  return edf_reordered_ ? edf_reordered_->value() : 0;
}
std::uint64_t QosScheduler::edf_dispatch_ontime() const {
  return edf_ontime_ ? edf_ontime_->value() : 0;
}
std::uint64_t QosScheduler::edf_dispatch_late() const {
  return edf_late_ ? edf_late_->value() : 0;
}

std::uint64_t QosScheduler::fill_bytes(const std::string& tenant_name) const {
  auto it = tenants_.find(tenant_name);
  return it == tenants_.end() ? 0 : it->second->fill_bytes->value();
}

std::vector<QosTenantStats> QosScheduler::stats() const {
  std::vector<QosTenantStats> out;
  for (const auto& [name, t] : tenants_) {
    QosTenantStats s;
    s.tenant = name;
    s.weight = t->weight;
    s.requests = t->requests->value();
    s.bytes = t->bytes->value();
    s.uncharged = t->uncharged->value();
    s.fill_bytes = t->fill_bytes->value();
    s.shed = t->shed->value();
    s.queued = t->queue.size();
    s.queue_high = t->depth->high();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace vread::core
