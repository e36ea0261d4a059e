#include "core/peer_cache.h"

#include <algorithm>

#include "core/vread_daemon.h"
#include "fault/fault.h"

namespace vread::core {

PeerCacheDirectory::PeerCacheDirectory(sim::Simulation& sim)
    : sim_(sim),
      publishes_(metrics_.counter("vread_peercache_publishes_total", {},
                                  "Copyset publish operations accepted")),
      invalidations_(metrics_.counter("vread_peercache_invalidations_total", {},
                                      "Copyset invalidations (epoch bumps)")),
      invalidations_lost_(metrics_.counter(
          "vread_peercache_invalidations_lost_total", {},
          "Invalidation notifications dropped by the invalidate_lost fault")),
      stale_publish_(metrics_.counter(
          "vread_peercache_stale_publish_refusals_total", {},
          "Publishes refused because an invalidation advanced the epoch mid-fetch")),
      copyset_size_(metrics_.histogram("vread_peercache_copyset_size", {},
                                       "Copyset members per invalidated block")) {}

void PeerCacheDirectory::attach(VReadDaemon* daemon) { daemons_.push_back(daemon); }

VReadDaemon* PeerCacheDirectory::shard_owner(const Key& key) const {
  if (daemons_.empty()) return nullptr;
  const std::size_t h = std::hash<std::string>{}(key.first + "/" + key.second);
  return daemons_[h % daemons_.size()];
}

bool PeerCacheDirectory::same_rack(VReadDaemon* a, VReadDaemon* b) const {
  if (!rack_of_) return true;
  return rack_of_(a->host().name()) == rack_of_(b->host().name());
}

sim::Task PeerCacheDirectory::lookup(VReadDaemon* requester, const std::string& dn,
                                     const std::string& block, LookupResult& out) {
  out = LookupResult{};
  const Key key{dn, block};
  VReadDaemon* owner = shard_owner(key);
  if (owner && owner != requester) {
    // Control round-trip to the shard owner's host. The owner answers from
    // its in-memory shard — no daemon thread is occupied, mirroring how an
    // RDMA-reachable table would be probed.
    hw::Lan& lan = requester->host().lan();
    co_await lan.transfer(requester->host().lan_id(), owner->host().lan_id(),
                          kCtrlBytes);
    co_await lan.transfer(owner->host().lan_id(), requester->host().lan_id(),
                          kCtrlBytes);
  }
  // The shard answering from a pre-invalidation snapshot: stale copyset
  // members leak into the reply and the requester's fetch-time epoch check
  // has to catch them.
  const bool include_stale =
      fault::registry().should_fire(fault::points::kPeerCacheStalePeer);
  auto it = blocks_.find(key);
  if (it == blocks_.end()) co_return;
  const BlockState& st = it->second;
  const std::uint64_t cur = base(dn) + st.delta;
  out.epoch = cur;
  for (const auto& [holder, epoch] : st.holders) {
    if (holder == requester) continue;
    if (epoch == cur || include_stale) {
      out.holders.push_back(Holder{holder, epoch});
    }
  }
  // Same-rack holders rank ahead of cross-rack ones (ReplicaSelector path
  // tiers); otherwise publish order.
  if (rack_of_ && out.holders.size() > 1) {
    std::stable_sort(out.holders.begin(), out.holders.end(),
                     [&](const Holder& a, const Holder& b) {
                       return same_rack(requester, a.daemon) >
                              same_rack(requester, b.daemon);
                     });
  }
}

std::uint64_t PeerCacheDirectory::publish(VReadDaemon* holder, const std::string& dn,
                                          const std::string& block) {
  BlockState& st = blocks_[Key{dn, block}];
  const std::uint64_t cur = base(dn) + st.delta;
  if (auto it = st.find(holder); it != st.holders.end()) {
    it->second = cur;
  } else {
    st.holders.emplace_back(holder, cur);
  }
  publishes_.inc();
  return cur;
}

bool PeerCacheDirectory::publish_if_current(VReadDaemon* holder, const std::string& dn,
                                            const std::string& block,
                                            std::uint64_t expected_epoch) {
  // Effective epoch WITHOUT creating a record: a missing record means
  // base(dn), never a free pass — so a record erased (or never created)
  // after an invalidation that moved the base still refuses the publish.
  if (epoch(dn, block) != expected_epoch) {
    // An invalidation won the race: the bytes in flight belong to the old
    // epoch and must be neither cached nor advertised.
    stale_publish_.inc();
    return false;
  }
  BlockState& st = blocks_[Key{dn, block}];
  if (auto it = st.find(holder); it != st.holders.end()) {
    it->second = expected_epoch;
  } else {
    st.holders.emplace_back(holder, expected_epoch);
  }
  publishes_.inc();
  return true;
}

void PeerCacheDirectory::unpublish(VReadDaemon* holder, const std::string& dn,
                                   const std::string& block) {
  auto it = blocks_.find(Key{dn, block});
  if (it == blocks_.end()) return;
  if (auto hit = it->second.find(holder); hit != it->second.holders.end()) {
    it->second.holders.erase(hit);
  }
  // Dropping a holder-less record with no block-level invalidation history
  // bounds directory growth, and is lossless: epoch() reports base(dn)
  // with or without it. Records with delta > 0 stay as tombstones so a
  // publish racing the erase is still refused.
  if (it->second.holders.empty() && it->second.delta == 0) blocks_.erase(it);
}

std::uint64_t PeerCacheDirectory::base(const std::string& dn) const {
  auto it = dn_base_.find(dn);
  return it == dn_base_.end() ? 1 : it->second;
}

std::uint64_t PeerCacheDirectory::epoch(const std::string& dn,
                                        const std::string& block) const {
  auto it = blocks_.find(Key{dn, block});
  return base(dn) + (it == blocks_.end() ? 0 : it->second.delta);
}

sim::Task PeerCacheDirectory::notify_holder(VReadDaemon* origin, VReadDaemon* holder,
                                            std::string dn, std::string block) {
  if (fault::registry().should_fire(fault::points::kPeerCacheInvalidateLost)) {
    // The notification never arrives. The holder keeps its bytes, but the
    // epoch bump already made its copyset record unroutable; defense
    // layers 2 and 3 carry the coherence argument from here.
    invalidations_lost_.inc();
    co_return;
  }
  if (holder != origin) {
    co_await origin->host().lan().transfer(origin->host().lan_id(),
                                           holder->host().lan_id(), kCtrlBytes);
  }
  holder->apply_peer_invalidate(dn, block);
}

void PeerCacheDirectory::revoke_holders(VReadDaemon* origin, const Key& key,
                                        BlockState& st) {
  invalidations_.inc();
  copyset_size_.observe(st.holders.size());
  for (const auto& [holder, epoch] : st.holders) {
    (void)epoch;
    sim_.spawn(notify_holder(origin, holder, key.first, key.second));
  }
}

void PeerCacheDirectory::invalidate(VReadDaemon* origin, const std::string& dn,
                                    const std::string& block) {
  // The synchronous delta bump is the linearization point: every lookup
  // from now on filters the pre-bump holders, whether or not their
  // notifications arrive. operator[] on purpose — with no record (erased
  // by unpublish, or never published) the bump must still leave a
  // tombstone, or an in-flight fetch could republish pre-invalidation
  // bytes at an unchanged epoch.
  const Key key{dn, block};
  BlockState& st = blocks_[key];
  st.delta++;
  revoke_holders(origin, key, st);
}

void PeerCacheDirectory::invalidate_datanode(VReadDaemon* origin,
                                             const std::string& dn) {
  // Advancing the per-datanode base moves the effective epoch of EVERY
  // (dn, *) block in one step — including blocks with no record, so the
  // bump is never forgotten when a sole holder's eviction erased the
  // record just before we got here.
  auto [bit, inserted] = dn_base_.try_emplace(dn, 1);
  bit->second++;
  for (auto it = blocks_.lower_bound(Key{dn, ""});
       it != blocks_.end() && it->first.first == dn; ++it) {
    revoke_holders(origin, it->first, it->second);
  }
}

}  // namespace vread::core
