// Virtual-disk image file: the authoritative byte store behind a VM's
// virtual disk (the "raw image file located in the local SSD" of the
// evaluation setup).
//
// Content is chunked and allocate-on-write (a chunk exists once a byte in
// it is written) so multi-GB images cost memory only for bytes actually
// written. Timing is *not* modelled here — the guest path charges
// virtio-blk + disk time, the host path charges loop-device + disk time;
// both read the same bytes, which is what makes vRead's direct image
// access byte-correct by construction.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/buffer.h"

namespace vread::fs {

class DiskImage {
 public:
  static constexpr std::uint64_t kChunkSize = 256 * 1024;

  explicit DiskImage(std::uint64_t size_bytes) : size_(size_bytes), id_(next_id_++) {}

  std::uint64_t size() const { return size_; }

  // Stable identity used as the page-cache object id for host-side caching
  // of the image file itself.
  std::uint64_t id() const { return id_; }

  void write(std::uint64_t offset, const std::uint8_t* data, std::uint64_t len) {
    while (len > 0) {
      const std::uint64_t chunk = offset / kChunkSize;
      const std::uint64_t within = offset % kChunkSize;
      const std::uint64_t n = std::min(len, kChunkSize - within);
      std::vector<std::uint8_t>& c = chunk_for_write(chunk);
      std::memcpy(c.data() + within, data, n);
      offset += n;
      data += n;
      len -= n;
    }
  }

  void write(std::uint64_t offset, const mem::Buffer& buf) {
    write(offset, buf.data(), buf.size());
  }

  void read(std::uint64_t offset, std::uint8_t* out, std::uint64_t len) const {
    while (len > 0) {
      const std::uint64_t chunk = offset / kChunkSize;
      const std::uint64_t within = offset % kChunkSize;
      const std::uint64_t n = std::min(len, kChunkSize - within);
      auto it = chunks_.find(chunk);
      if (it == chunks_.end()) {
        std::memset(out, 0, n);  // unwritten regions read as zeros
      } else {
        std::memcpy(out, it->second.data() + within, n);
      }
      offset += n;
      out += n;
      len -= n;
    }
  }

  mem::Buffer read(std::uint64_t offset, std::uint64_t len) const {
    mem::Buffer b(len);
    read(offset, b.data(), len);
    return b;
  }

  std::uint64_t allocated_bytes() const { return chunks_.size() * kChunkSize; }

 private:
  std::vector<std::uint8_t>& chunk_for_write(std::uint64_t chunk) {
    auto [it, inserted] = chunks_.try_emplace(chunk);
    if (inserted) it->second.assign(kChunkSize, 0);
    return it->second;
  }

  std::uint64_t size_;
  std::uint64_t id_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> chunks_;

  static inline std::uint64_t next_id_ = 1;
};

using DiskImagePtr = std::shared_ptr<DiskImage>;

}  // namespace vread::fs
