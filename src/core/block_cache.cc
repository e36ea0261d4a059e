#include "core/block_cache.h"

#include "fault/fault.h"

namespace vread::core {

BlockCache::BlockCache(std::uint64_t capacity_bytes, const std::string& host)
    : capacity_(capacity_bytes),
      hits_(metrics_.counter("vread_daemon_cache_hits_total", {{"host", host}},
                             "Block-cache lookups served from a cached entry")),
      misses_(metrics_.counter("vread_daemon_cache_misses_total", {{"host", host}},
                               "Block-cache lookups that fell through to the mount")),
      evictions_(metrics_.counter("vread_daemon_cache_evictions_total", {{"host", host}},
                                  "Entries evicted to make room (LRU)")),
      invalidations_(metrics_.counter("vread_daemon_cache_invalidations_total",
                                      {{"host", host}},
                                      "Entries dropped by vRead_update/remount")),
      integrity_failures_(metrics_.counter("vread_daemon_cache_integrity_failures_total",
                                           {{"host", host}},
                                           "Hits failing checksum verification")),
      tenant_evictions_(metrics_.counter("vread_daemon_cache_tenant_evictions_total",
                                         {{"host", host}},
                                         "Entries evicted by a per-tenant residency cap")),
      bytes_g_(metrics_.gauge("vread_daemon_cache_bytes", {{"host", host}},
                              "Payload bytes currently cached")) {}

mem::Buffer BlockCache::lookup(const std::string& dn, const std::string& block,
                               std::uint64_t offset, std::uint64_t len) {
  if (!enabled() || len == 0) {
    misses_.inc();
    return mem::Buffer();
  }
  // The covering entry, if any, is the last one starting at or before
  // `offset` for this (dn, block).
  auto it = entries_.upper_bound(Key{dn, block, offset});
  if (it == entries_.begin()) {
    misses_.inc();
    return mem::Buffer();
  }
  --it;
  const Key& k = it->first;
  Entry& e = it->second;
  if (k.dn != dn || k.block != block || k.offset > offset ||
      offset + len > k.offset + e.data.size()) {
    misses_.inc();
    return mem::Buffer();
  }
  if (fault::registry().should_fire(fault::points::kCacheCorrupt)) {
    e.data[0] ^= 0x01;  // copy-on-write: only the entry's own bytes change
  }
  if (e.data.checksum() != e.checksum) {
    // Integrity check failed: drop the entry and report a miss — a cache
    // hit must never return bytes the mount would not have.
    integrity_failures_.inc();
    erase(it);
    misses_.inc();
    return mem::Buffer();
  }
  lru_.splice(lru_.end(), lru_, e.lru);  // bump to MRU
  hits_.inc();
  return e.data.slice(offset - k.offset, len);
}

bool BlockCache::insert(const std::string& dn, const std::string& block,
                        std::uint64_t offset, const mem::Buffer& data,
                        const std::string& tenant) {
  if (!enabled() || data.empty() || data.size() > capacity_) return false;
  const Key key{dn, block, offset};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Same chop point re-read (write-once blocks: contents are identical);
    // just refresh recency.
    lru_.splice(lru_.end(), lru_, it->second.lru);
    return true;
  }
  if (!tenant.empty()) {
    if (auto cap_it = tenant_caps_.find(tenant); cap_it != tenant_caps_.end()) {
      if (data.size() > cap_it->second) return false;  // never fits this tenant
      evict_tenant_to_fit(tenant, data.size(), cap_it->second);
    }
  }
  evict_to_fit(data.size());
  Entry e;
  e.data = data;
  e.checksum = e.data.checksum();
  e.tenant = tenant;
  e.lru = lru_.insert(lru_.end(), key);
  bytes_ += data.size();
  if (!tenant.empty()) tenant_bytes_[tenant] += data.size();
  entries_.emplace(key, std::move(e));
  bytes_g_.set(static_cast<std::int64_t>(bytes_));
  return true;
}

void BlockCache::set_tenant_cap(const std::string& tenant, std::uint64_t cap_bytes) {
  if (cap_bytes == 0) {
    tenant_caps_.erase(tenant);
    return;
  }
  tenant_caps_[tenant] = cap_bytes;
  evict_tenant_to_fit(tenant, 0, cap_bytes);
}

std::uint64_t BlockCache::tenant_cap(const std::string& tenant) const {
  auto it = tenant_caps_.find(tenant);
  return it == tenant_caps_.end() ? 0 : it->second;
}

std::uint64_t BlockCache::tenant_bytes(const std::string& tenant) const {
  auto it = tenant_bytes_.find(tenant);
  return it == tenant_bytes_.end() ? 0 : it->second;
}

void BlockCache::evict_tenant_to_fit(const std::string& tenant, std::uint64_t incoming,
                                     std::uint64_t cap) {
  // Walk from the LRU end evicting only this tenant's entries: the cap
  // squeezes the offender's own working set, never its neighbors'.
  auto lit = lru_.begin();
  while (lit != lru_.end() && tenant_bytes(tenant) + incoming > cap) {
    auto eit = entries_.find(*lit);
    ++lit;  // advance before erase invalidates the current node
    if (eit->second.tenant != tenant) continue;
    tenant_evictions_.inc();
    erase(eit);
  }
}

void BlockCache::invalidate_datanode(const std::string& dn) {
  auto it = entries_.lower_bound(Key{dn, "", 0});
  while (it != entries_.end() && it->first.dn == dn) {
    invalidations_.inc();
    erase(it++);
  }
}

void BlockCache::invalidate_block(const std::string& dn, const std::string& block) {
  auto it = entries_.lower_bound(Key{dn, block, 0});
  while (it != entries_.end() && it->first.dn == dn && it->first.block == block) {
    invalidations_.inc();
    erase(it++);
  }
}

void BlockCache::clear() {
  if (removal_observer_) {
    // One notification per distinct (dn, block), same contract as erase().
    const std::string* dn = nullptr;
    const std::string* block = nullptr;
    for (const auto& [key, entry] : entries_) {
      if (dn && *dn == key.dn && *block == key.block) continue;
      dn = &key.dn;
      block = &key.block;
      removal_observer_(key.dn, key.block);
    }
  }
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  tenant_bytes_.clear();
  bytes_g_.set(0);
}

void BlockCache::erase(std::map<Key, Entry>::iterator it) {
  bytes_ -= it->second.data.size();
  if (!it->second.tenant.empty()) {
    tenant_bytes_[it->second.tenant] -= it->second.data.size();
  }
  lru_.erase(it->second.lru);
  const std::string dn = it->first.dn;
  const std::string block = it->first.block;
  it = entries_.erase(it);
  bytes_g_.set(static_cast<std::int64_t>(bytes_));
  if (removal_observer_) {
    // `it` now points past the erased key; the previous neighbor (if any)
    // tells us whether other entries of the same (dn, block) survive.
    bool last = true;
    if (it != entries_.end() && it->first.dn == dn && it->first.block == block) {
      last = false;
    } else if (it != entries_.begin()) {
      auto prev = std::prev(it);
      if (prev->first.dn == dn && prev->first.block == block) last = false;
    }
    if (last) removal_observer_(dn, block);
  }
}

void BlockCache::evict_to_fit(std::uint64_t incoming) {
  while (bytes_ + incoming > capacity_ && !lru_.empty()) {
    evictions_.inc();
    erase(entries_.find(lru_.front()));
  }
}

}  // namespace vread::core
