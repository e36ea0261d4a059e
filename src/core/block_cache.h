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
// migration. Every entry stores the page digest of its payload
// (mem::Buffer::page_digest), established at insert; each hit hashes every
// byte of the entry again and compares. A mismatch drops the entry and
// reports a miss (integrity never depends on the cache being right). The
// insert-time digest comes from Buffer::remembered_page_digest(): a page of
// a slab that was digested before (a re-read of the same image run, however
// it is chopped) is not hashed again. The hit side never uses it.
//
// Entries hold the caller's mem::Buffer view as is, so neither an insert
// nor a hit copies bytes. A block read off the mount is a view of a disk
// image run, which the image keeps resident anyway (block files are
// write-once and never dropped), so such an entry pins nothing extra; a
// view assembled by a non-adjacent append pins at most twice its size
// (DESIGN.md §17). `capacity_bytes` bounds the bytes the entries cover.
//
// Datanodes and blocks are interned sim::Names (DESIGN.md §13):
// keys copy pointers, and order by contents, so entries, evictions and
// removal notifications come in the same order as with string keys.
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
#include <type_traits>

#include "mem/buffer.h"
#include "metrics/registry.h"
#include "sim/name.h"

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
  mem::Buffer lookup(sim::Name dn, sim::Name block, std::uint64_t offset, std::uint64_t len);

  // Caches [offset, offset+data.size()) of (dn, block), evicting LRU
  // entries to stay within capacity. Oversized payloads are not cached.
  // Returns true when the bytes are resident afterwards (fresh insert,
  // same-chop refresh, or a longer payload replacing a shorter entry at
  // the same offset) — the peer tier publishes a copyset entry only for
  // resident bytes.
  bool insert(sim::Name dn, sim::Name block, std::uint64_t offset, const mem::Buffer& data);

  // For callers holding the block name as a plain string (tests, probes):
  // interns it on every call, so per-read code passes a sim::Name instead.
  template <typename S>
    requires std::is_same_v<S, std::string>
  mem::Buffer lookup(sim::Name dn, const S& block, std::uint64_t offset, std::uint64_t len) {
    return lookup(dn, sim::Name(block), offset, len);
  }
  template <typename S>
    requires std::is_same_v<S, std::string>
  bool insert(sim::Name dn, const S& block, std::uint64_t offset, const mem::Buffer& data) {
    return insert(dn, sim::Name(block), offset, data);
  }

  // Drops every entry belonging to `dn` (vRead_update / remount,
  // unregistration, migration).
  void invalidate_datanode(sim::Name dn);
  // Drops every entry of one (dn, block) — a peer-cache copyset
  // invalidation targets a single block, not the whole datanode.
  void invalidate_block(sim::Name dn, sim::Name block);
  void clear();

  // Invoked with (dn, block) whenever the LAST cached entry of that block
  // leaves the cache — through eviction, invalidation or clear(). The peer
  // tier uses it to unpublish this daemon from the block's copyset so the
  // directory never routes a fetch at bytes that are already gone. The
  // observer must not reenter the cache.
  void set_removal_observer(std::function<void(sim::Name dn, sim::Name block)> fn) {
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
    sim::Name dn;
    sim::Name block;
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
    std::list<Key>::iterator lru;
  };

  // `notify` false skips the removal observer, for an entry being replaced.
  void erase(std::map<Key, Entry>::iterator it, bool notify = true);
  void evict_to_fit(std::uint64_t incoming);

  std::uint64_t capacity_;
  std::uint64_t bytes_ = 0;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  // front = LRU victim, back = MRU
  std::function<void(sim::Name, sim::Name)> removal_observer_;

  metrics::MetricGroup metrics_;
  metrics::Counter& hits_;
  metrics::Counter& misses_;
  metrics::Counter& evictions_;
  metrics::Counter& invalidations_;
  metrics::Counter& integrity_failures_;
  metrics::Gauge& bytes_g_;
};

}  // namespace vread::core
