// LRU page cache (guest kernel buffer cache / host file-system cache).
//
// Tracks *which* 4 KB pages of which object (inode, disk image, ...) are
// resident; content always comes from the authoritative store (coherent for
// HDFS's write-once blocks). Read paths consult the cache to decide how
// many bytes must go to the disk model; hits cost only the copy cycles.
//
// Layout: one slot array holds every resident page with u32 LRU links
// (freed slots are chained on a free list), and an open-addressed index
// (linear probing, backward-shift deletion) maps (object, page) to its
// slot. Both grow by doubling as pages arrive; nothing is sized from the
// capacity, so a large cache costs memory only for what it holds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace vread::mem {

class PageCache {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  // capacity_bytes rounded down to whole pages; 0 disables caching entirely.
  explicit PageCache(std::uint64_t capacity_bytes)
      : capacity_pages_(capacity_bytes / kPageSize) {}

  bool contains(std::uint64_t object, std::uint64_t page) const {
    return find(object, page) != kNil;
  }

  // Marks a page resident (inserting or refreshing LRU position).
  void insert(std::uint64_t object, std::uint64_t page) {
    if (capacity_pages_ == 0) return;
    const std::uint32_t found = find(object, page);
    if (found != kNil) {
      touch(found);
      return;
    }
    const std::uint32_t s = alloc_slot(object, page);
    link_front(s);
    index_insert(s);
    if (size_ > capacity_pages_) {
      const std::uint32_t victim = lru_tail_;
      remove(victim);
      ++evictions_;
    }
  }

  // Byte count of [offset, offset+len) NOT resident; resident pages get
  // their LRU position refreshed (this models the read access).
  std::uint64_t miss_bytes(std::uint64_t object, std::uint64_t offset, std::uint64_t len) {
    if (len == 0) return 0;
    if (capacity_pages_ == 0) return len;
    std::uint64_t missing = 0;
    const std::uint64_t first = offset / kPageSize;
    const std::uint64_t last = (offset + len - 1) / kPageSize;
    for (std::uint64_t p = first; p <= last; ++p) {
      const std::uint64_t page_begin = p * kPageSize;
      const std::uint64_t page_end = page_begin + kPageSize;
      const std::uint64_t lo = std::max(offset, page_begin);
      const std::uint64_t hi = std::min(offset + len, page_end);
      const std::uint32_t s = find(object, p);
      if (s == kNil) {
        missing += hi - lo;
        ++misses_;
      } else {
        touch(s);
        ++hits_;
      }
    }
    return missing;
  }

  // Marks every page of [offset, offset+len) resident (post-read fill or
  // write-through population).
  void fill(std::uint64_t object, std::uint64_t offset, std::uint64_t len) {
    if (len == 0 || capacity_pages_ == 0) return;
    const std::uint64_t first = offset / kPageSize;
    const std::uint64_t last = (offset + len - 1) / kPageSize;
    for (std::uint64_t p = first; p <= last; ++p) insert(object, p);
  }

  void clear() {
    slots_.clear();
    std::fill(index_.begin(), index_.end(), kNil);
    free_head_ = lru_head_ = lru_tail_ = kNil;
    size_ = 0;
  }

  std::size_t resident_pages() const { return size_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    std::uint64_t object;
    std::uint64_t page;
    std::uint32_t prev;  // toward the most recently used end
    std::uint32_t next;  // toward the least recently used end; free-list link
  };

  static std::uint64_t hash(std::uint64_t object, std::uint64_t page) {
    std::uint64_t h = object * 0x9e3779b97f4a7c15ULL ^ page;
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ULL;
    return h ^ (h >> 32);
  }
  std::size_t home(std::uint32_t s) const {
    return hash(slots_[s].object, slots_[s].page) & (index_.size() - 1);
  }

  std::uint32_t find(std::uint64_t object, std::uint64_t page) const {
    if (size_ == 0) return kNil;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = hash(object, page) & mask;; i = (i + 1) & mask) {
      const std::uint32_t s = index_[i];
      if (s == kNil) return kNil;
      if (slots_[s].object == object && slots_[s].page == page) return s;
    }
  }

  void index_insert(std::uint32_t s) {
    if ((size_ + 1) * 2 > index_.size()) grow_index();
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(s);
    while (index_[i] != kNil) i = (i + 1) & mask;
    index_[i] = s;
    ++size_;
  }

  void grow_index() {
    std::vector<std::uint32_t> old(std::max<std::size_t>(16, index_.size() * 2), kNil);
    old.swap(index_);
    const std::size_t mask = index_.size() - 1;
    for (const std::uint32_t s : old) {
      if (s == kNil) continue;
      std::size_t i = home(s);
      while (index_[i] != kNil) i = (i + 1) & mask;
      index_[i] = s;
    }
  }

  // Backward-shift deletion: later members of the probe run move back
  // into the hole when that keeps them at or after their home position,
  // so lookups never need tombstones.
  void index_erase(std::uint32_t s) {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = home(s);
    while (index_[hole] != s) hole = (hole + 1) & mask;
    for (std::size_t j = (hole + 1) & mask; index_[j] != kNil; j = (j + 1) & mask) {
      const std::size_t dist = (j - home(index_[j])) & mask;
      if (dist >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kNil;
    --size_;
  }

  std::uint32_t alloc_slot(std::uint64_t object, std::uint64_t page) {
    std::uint32_t s = free_head_;
    if (s != kNil) {
      free_head_ = slots_[s].next;
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back({});
    }
    slots_[s] = Slot{object, page, kNil, kNil};
    return s;
  }

  void link_front(std::uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = lru_head_;
    (lru_head_ != kNil ? slots_[lru_head_].prev : lru_tail_) = s;
    lru_head_ = s;
  }
  void unlink(std::uint32_t s) {
    const Slot& sl = slots_[s];
    (sl.prev != kNil ? slots_[sl.prev].next : lru_head_) = sl.next;
    (sl.next != kNil ? slots_[sl.next].prev : lru_tail_) = sl.prev;
  }
  void touch(std::uint32_t s) {
    if (s == lru_head_) return;
    unlink(s);
    link_front(s);
  }
  void remove(std::uint32_t s) {
    index_erase(s);
    unlink(s);
    slots_[s].next = free_head_;
    free_head_ = s;
  }

  std::uint64_t capacity_pages_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> index_;  // slot per position; kNil = empty
  std::size_t size_ = 0;              // resident pages (= index entries)
  std::uint32_t free_head_ = kNil;
  std::uint32_t lru_head_ = kNil;  // most recently used
  std::uint32_t lru_tail_ = kNil;  // least recently used (next victim)
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace vread::mem
