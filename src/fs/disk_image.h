// Virtual-disk image file: the authoritative byte store behind a VM's
// virtual disk (the "raw image file located in the local SSD" of the
// evaluation setup).
//
// The image is the one long-lived owner of payload bytes (DESIGN.md §17).
// It holds an ordered map of non-overlapping runs, each a mem::Buffer view
// keyed by its image offset, so multi-GB images cost memory only for bytes
// actually written:
//
//  - write(Buffer) stores the caller's view as it is, without copying: a
//    preloaded block's deterministic slab is shared by every replica
//    written from it, and a pipeline packet stays a view of the writer's
//    buffer on every replica. A raw pointer write copies its bytes once
//    into an exact-size slab. The image pins only slabs some writer handed
//    it; every writer hands whole buffers (DESIGN.md §17 lists them).
//  - An overwrite trims or splits the runs it overlaps by slicing them. No
//    slab is ever written in place, so a view handed out by an earlier
//    read keeps the bytes it saw.
//  - A read that one run covers returns a slice of it in O(1); any other
//    read fills one fresh slab, with unwritten holes reading as zeros.
//
// Timing is *not* modelled here — the guest path charges virtio-blk + disk
// time, the host path charges loop-device + disk time; both read the same
// bytes, which is what makes vRead's direct image access byte-correct by
// construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>

#include "mem/buffer.h"

namespace vread::fs {

class DiskImage {
 public:
  explicit DiskImage(std::uint64_t size_bytes) : size_(size_bytes), id_(next_id_++) {}

  std::uint64_t size() const { return size_; }

  // Stable identity used as the page-cache object id for host-side caching
  // of the image file itself.
  std::uint64_t id() const { return id_; }

  void write(std::uint64_t offset, const std::uint8_t* data, std::uint64_t len) {
    if (len > 0) store(offset, mem::Buffer(data, len));
  }

  void write(std::uint64_t offset, const mem::Buffer& buf) {
    if (!buf.empty()) store(offset, buf);
  }

  // Copies [offset, offset+len) out to `out`.
  void read(std::uint64_t offset, std::uint8_t* out, std::uint64_t len) const {
    if (len == 0) return;
    const std::uint64_t end = offset + len;
    std::uint64_t pos = offset;
    for (auto it = first_overlap(offset); it != runs_.end() && it->first < end; ++it) {
      const std::uint64_t from = std::max(pos, it->first);
      const std::uint64_t to = std::min(end, it->first + it->second.size());
      std::memset(out + (pos - offset), 0, from - pos);  // unwritten hole
      std::memcpy(out + (from - offset), it->second.data() + (from - it->first), to - from);
      pos = to;
    }
    std::memset(out + (pos - offset), 0, end - pos);
  }

  mem::Buffer read(std::uint64_t offset, std::uint64_t len) const {
    if (len == 0) return mem::Buffer();
    auto it = first_overlap(offset);
    if (it != runs_.end() && it->first <= offset &&
        offset + len <= it->first + it->second.size()) {
      return it->second.slice(offset - it->first, len);
    }
    return mem::Buffer::filled(len, [&](std::uint8_t* out) { read(offset, out, len); });
  }

  // Bytes currently held in runs (written and not since overwritten).
  std::uint64_t allocated_bytes() const { return allocated_; }

 private:
  using Runs = std::map<std::uint64_t, mem::Buffer>;

  // The first run ending after `offset`.
  Runs::const_iterator first_overlap(std::uint64_t offset) const {
    auto it = runs_.upper_bound(offset);
    if (it != runs_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.size() > offset) return prev;
    }
    return it;
  }

  // Places `run` at `offset`, trimming or splitting what it overlaps.
  void store(std::uint64_t offset, mem::Buffer run) {
    const std::uint64_t end = offset + run.size();
    auto it = runs_.lower_bound(offset);
    if (it != runs_.begin()) {
      auto prev = std::prev(it);
      const std::uint64_t prev_end = prev->first + prev->second.size();
      if (prev_end > offset) {
        // Starts before the write: keep its head, and its tail when it
        // also extends past the write.
        if (prev_end > end) {
          runs_.emplace_hint(it, end, prev->second.slice(end - prev->first, prev_end - end));
          allocated_ += prev_end - end;
        }
        allocated_ -= prev_end - offset;
        prev->second = prev->second.slice(0, offset - prev->first);
      }
    }
    while (it != runs_.end() && it->first < end) {
      const std::uint64_t run_end = it->first + it->second.size();
      allocated_ -= it->second.size();
      if (run_end > end) {
        // Extends past the write: keep its tail, re-keyed at `end`.
        auto node = runs_.extract(it);
        node.mapped() = node.mapped().slice(end - node.key(), run_end - end);
        node.key() = end;
        allocated_ += run_end - end;
        it = runs_.insert(std::move(node)).position;
        break;
      }
      it = runs_.erase(it);
    }
    allocated_ += run.size();
    runs_.emplace_hint(it, offset, std::move(run));
  }

  std::uint64_t size_;
  std::uint64_t id_;
  Runs runs_;
  std::uint64_t allocated_ = 0;

  static inline std::uint64_t next_id_ = 1;
};

using DiskImagePtr = std::shared_ptr<DiskImage>;

}  // namespace vread::fs
