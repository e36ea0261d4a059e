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
      bytes_g_(metrics_.gauge("vread_daemon_cache_bytes", {{"host", host}},
                              "Payload bytes currently cached")) {}

mem::Buffer BlockCache::lookup(sim::Name dn, sim::Name block, std::uint64_t offset,
                               std::uint64_t len) {
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
  if (e.data.page_digest() != e.checksum) {
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

bool BlockCache::insert(sim::Name dn, sim::Name block, std::uint64_t offset,
                        const mem::Buffer& data) {
  if (!enabled() || data.empty() || data.size() > capacity_) return false;
  const Key key{dn, block, offset};
  auto it = entries_.find(key);
  if (it != entries_.end() && data.size() <= it->second.data.size()) {
    // Same chop point re-read (write-once blocks: the entry already covers
    // these bytes); just refresh recency.
    lru_.splice(lru_.end(), lru_, it->second.lru);
    return true;
  }
  // A longer payload at a cached offset replaces the shorter entry, which
  // could not serve the longer range. The block stays cached, so the
  // removal is not reported.
  if (it != entries_.end()) erase(it, /*notify=*/false);
  evict_to_fit(data.size());
  Entry e;
  e.data = data;
  // Establishing the reference digest may reuse page digests the slab
  // remembers; lookup() always hashes the cached bytes again.
  e.checksum = e.data.remembered_page_digest();
  e.lru = lru_.insert(lru_.end(), key);
  bytes_ += data.size();
  entries_.emplace(key, std::move(e));
  bytes_g_.set(static_cast<std::int64_t>(bytes_));
  return true;
}

void BlockCache::invalidate_datanode(sim::Name dn) {
  auto it = entries_.lower_bound(Key{dn, sim::Name(), 0});
  while (it != entries_.end() && it->first.dn == dn) {
    invalidations_.inc();
    erase(it++);
  }
}

void BlockCache::invalidate_block(sim::Name dn, sim::Name block) {
  auto it = entries_.lower_bound(Key{dn, block, 0});
  while (it != entries_.end() && it->first.dn == dn && it->first.block == block) {
    invalidations_.inc();
    erase(it++);
  }
}

void BlockCache::clear() {
  if (removal_observer_) {
    // One notification per distinct (dn, block), same contract as erase().
    const Key* last = nullptr;
    for (const auto& [key, entry] : entries_) {
      if (last && last->dn == key.dn && last->block == key.block) continue;
      last = &key;
      removal_observer_(key.dn, key.block);
    }
  }
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  bytes_g_.set(0);
}

void BlockCache::erase(std::map<Key, Entry>::iterator it, bool notify) {
  bytes_ -= it->second.data.size();
  lru_.erase(it->second.lru);
  const sim::Name dn = it->first.dn;
  const sim::Name block = it->first.block;
  it = entries_.erase(it);
  bytes_g_.set(static_cast<std::int64_t>(bytes_));
  if (notify && removal_observer_) {
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
