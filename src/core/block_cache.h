// Daemon-side shared block cache (DESIGN.md §10).
//
// Concurrent streams reading the same hot block through different vRead
// descriptors used to pay the loop-mount traversal (and, cold, the disk
// fill) once per stream. This LRU byte-range cache sits in the daemon,
// keyed by (datanode, block): the first stream's read populates it and
// every later stream serves the ring copy straight from the cached buffer.
//
// Correctness leans on the same property as the rest of the design: HDFS
// blocks are write-once, so cached bytes can never be *wrong* — only
// *invisible-to-new-namespaces*. Accordingly the cache is invalidated on
// exactly the events that refresh a mount: vRead_update (block create/
// delete/rename reported by the namenode), datanode unregistration and VM
// migration. Every entry stores the mem::Hasher digest of its payload,
// taken at insert; each hit hashes the cached bytes again and compares. A
// mismatch drops the entry and reports a miss (integrity never depends on
// the cache being right).
//
// Entries hold the caller's mem::Buffer view as is, so neither an insert
// nor a hit copies bytes. A block read off the mount is a view of a disk
// image run, which the image keeps resident anyway (block files are
// write-once and never dropped), so such an entry pins nothing extra; a
// view assembled by a non-adjacent append pins at most twice its size
// (DESIGN.md §17). `capacity_bytes` bounds the bytes the entries cover.
//
// Entries are stored at the offsets the daemon's stream chopper produced
// (kStreamChunk-sized pieces); a lookup hits only when one entry covers
// the whole requested range. Repeated reads chop identically, so re-reads
// and concurrent same-pattern streams hit; readers with shifted alignment
// miss harmlessly.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <string>

#include "mem/buffer.h"
#include "metrics/registry.h"

namespace vread::core {

class BlockCache {
 public:
  // `capacity_bytes` bounds the payload bytes held; 0 disables the cache
  // (every lookup misses, inserts are dropped). `host` labels the metric
  // series.
  BlockCache(std::uint64_t capacity_bytes, const std::string& host);
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Returns the bytes for exactly [offset, offset+len) of (dn, block) when
  // a single cached entry covers the range, bumping it to MRU. Returns an
  // empty buffer on miss (len > 0 guarantees hits are non-empty).
  mem::Buffer lookup(const std::string& dn, const std::string& block,
                     std::uint64_t offset, std::uint64_t len);

  // Caches [offset, offset+data.size()) of (dn, block), evicting LRU
  // entries to stay within capacity. Oversized payloads are not cached.
  // `tenant` attributes the residency for per-tenant caps (§11); empty
  // means unattributed (counts toward no cap). Returns true when the
  // bytes are resident afterwards (fresh insert or same-chop refresh) —
  // the peer tier publishes a copyset entry only for resident bytes.
  bool insert(const std::string& dn, const std::string& block, std::uint64_t offset,
              const mem::Buffer& data, const std::string& tenant = {});

  // Caps how many cached bytes may be attributed to `tenant`; inserts that
  // would exceed it evict the tenant's own LRU entries first, so one
  // tenant's working set cannot flush everyone else's. 0 removes the cap.
  void set_tenant_cap(const std::string& tenant, std::uint64_t cap_bytes);
  std::uint64_t tenant_cap(const std::string& tenant) const;
  // Bytes currently cached on behalf of `tenant`.
  std::uint64_t tenant_bytes(const std::string& tenant) const;
  std::uint64_t tenant_evictions() const { return tenant_evictions_.value(); }

  // Drops every entry belonging to `dn` (vRead_update / remount,
  // unregistration, migration).
  void invalidate_datanode(const std::string& dn);
  // Drops every entry of one (dn, block) — a peer-cache copyset
  // invalidation targets a single block, not the whole datanode.
  void invalidate_block(const std::string& dn, const std::string& block);
  void clear();

  // Invoked with (dn, block) whenever the LAST cached entry of that block
  // leaves the cache — through eviction, invalidation or clear(). The peer
  // tier uses it to unpublish this daemon from the block's copyset so the
  // directory never routes a fetch at bytes that are already gone. The
  // observer must not reenter the cache.
  void set_removal_observer(
      std::function<void(const std::string& dn, const std::string& block)> fn) {
    removal_observer_ = std::move(fn);
  }

  std::uint64_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  std::uint64_t evictions() const { return evictions_.value(); }
  std::uint64_t invalidations() const { return invalidations_.value(); }
  std::uint64_t integrity_failures() const { return integrity_failures_.value(); }

 private:
  struct Key {
    std::string dn;
    std::string block;
    std::uint64_t offset;
    bool operator<(const Key& o) const {
      if (dn != o.dn) return dn < o.dn;
      if (block != o.block) return block < o.block;
      return offset < o.offset;
    }
  };
  struct Entry {
    mem::Buffer data;
    std::uint64_t checksum = 0;
    std::string tenant;  // who inserted it (cap accounting); may be empty
    std::list<Key>::iterator lru;
  };

  void erase(std::map<Key, Entry>::iterator it);
  void evict_to_fit(std::uint64_t incoming);
  void evict_tenant_to_fit(const std::string& tenant, std::uint64_t incoming,
                           std::uint64_t cap);

  std::uint64_t capacity_;
  std::uint64_t bytes_ = 0;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  // front = LRU victim, back = MRU
  std::map<std::string, std::uint64_t> tenant_caps_;
  std::map<std::string, std::uint64_t> tenant_bytes_;
  std::function<void(const std::string&, const std::string&)> removal_observer_;

  metrics::MetricGroup metrics_;
  metrics::Counter& hits_;
  metrics::Counter& misses_;
  metrics::Counter& evictions_;
  metrics::Counter& invalidations_;
  metrics::Counter& integrity_failures_;
  metrics::Counter& tenant_evictions_;
  metrics::Gauge& bytes_g_;
};

}  // namespace vread::core
