// Byte buffer with deterministic payload generation and checksums.
//
// Real bytes flow through every simulated data path (virtio rings, TCP
// streams, the vRead shared-memory ring, RDMA transfers), so the integrity
// property suite can assert byte-identical delivery on all of them. The
// *simulated* copies along those paths are charged as cycles; the host
// should not pay for them again. So a Buffer is a view — offset and length
// — into a refcounted slab (DESIGN.md "Payload plane"):
//
//  - Copying a Buffer and slice() share the slab: O(1), no bytes move.
//  - A slab's bytes change only through a view that owns it alone. Mutable
//    access (non-const data(), operator[]) first copies the view's bytes
//    into a private slab when any other view shares the current one, so
//    no write is ever visible through another view.
//  - append() adopts the other view when this one is empty, extends this
//    view when the other one continues it in the same slab (no bytes move),
//    grows in place when this view is the sole owner of its slab and the
//    slab has room, and otherwise copies once into a slab twice the new
//    length.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "mem/hasher.h"

namespace vread::mem {

class Buffer {
 public:
  Buffer() = default;
  // `size` zero bytes.
  explicit Buffer(std::size_t size) : Buffer(allocate(size)) {
    if (size > 0) std::memset(slab_.get(), 0, size);
  }
  Buffer(const std::uint8_t* p, std::size_t n) : Buffer(allocate(n)) {
    if (n > 0) std::memcpy(slab_.get(), p, n);
  }

  // `n` bytes written by `fill(std::uint8_t* out)`, which must write all
  // of them: the slab is not initialised first.
  template <typename Fill>
  static Buffer filled(std::size_t n, Fill&& fill) {
    Buffer b = allocate(n);
    if (n > 0) fill(b.slab_.get());
    return b;
  }

  // Deterministic pseudo-random content: the stream of `seed` is one
  // SplitMix64 word per 8 bytes (little-endian), so byte i is a pure
  // function of (seed, absolute_offset + i) and any sub-range of a file can
  // be regenerated and verified independently.
  static Buffer deterministic(std::uint64_t seed, std::uint64_t absolute_offset,
                              std::size_t size) {
    Buffer b = allocate(size);
    std::uint8_t* out = b.slab_.get();
    std::uint64_t pos = absolute_offset;
    std::size_t i = 0;
    for (; i < size && pos % 8 != 0; ++i, ++pos) out[i] = byte_at(seed, pos);
    for (; i + 8 <= size; i += 8, pos += 8) store_le64(out + i, word_at(seed, pos / 8));
    for (; i < size; ++i, ++pos) out[i] = byte_at(seed, pos);
    return b;
  }

  static std::uint8_t byte_at(std::uint64_t seed, std::uint64_t offset) {
    return static_cast<std::uint8_t>(word_at(seed, offset / 8) >> (8 * (offset % 8)));
  }

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const std::uint8_t* data() const { return slab_.get() + off_; }
  std::uint8_t* data() {
    own();
    return slab_.get() + off_;
  }
  std::uint8_t operator[](std::size_t i) const& { return data()[i]; }
  std::uint8_t& operator[](std::size_t i) & { return data()[i]; }
  // Nothing can observe a write through a temporary, so reading one never
  // copies its slab.
  std::uint8_t operator[](std::size_t i) && { return std::as_const(*this)[i]; }

  void append(const Buffer& other) {
    if (empty()) {
      *this = other;
      return;
    }
    if (slab_ == other.slab_ && off_ + len_ == other.off_) {
      len_ += other.len_;  // `other` continues this view in the same slab
      return;
    }
    append(other.data(), other.size());
  }
  void append(const std::uint8_t* p, std::size_t n) {
    if (n == 0) return;
    if (slab_.use_count() == 1 && off_ + len_ + n <= cap_) {
      std::memcpy(slab_.get() + off_ + len_, p, n);
      len_ += n;
      return;
    }
    // `p` may point into the current slab: copy both before dropping it.
    Buffer grown = allocate(2 * (len_ + n));
    if (len_ > 0) std::memcpy(grown.slab_.get(), std::as_const(*this).data(), len_);
    std::memcpy(grown.slab_.get() + len_, p, n);
    grown.len_ = len_ + n;
    *this = std::move(grown);
  }

  Buffer slice(std::size_t offset, std::size_t len) const {
    assert(offset + len <= len_);
    Buffer b = *this;
    b.off_ += offset;
    b.len_ = len;
    return b;
  }

  std::uint64_t checksum() const { return Hasher::hash(data(), len_); }

  bool operator==(const Buffer& other) const {
    return len_ == other.len_ && (len_ == 0 || std::memcmp(data(), other.data(), len_) == 0);
  }

  // Bytes of every slab allocated so far in this process: the payload
  // bytes the host materialised, as opposed to views it handed around.
  static std::uint64_t slab_bytes_allocated() {
    return slab_bytes_allocated_.load(std::memory_order_relaxed);
  }

 private:
  // A view of a fresh, uninitialised slab of exactly `size` bytes.
  static Buffer allocate(std::size_t size) {
    Buffer b;
    if (size == 0) return b;
    slab_bytes_allocated_.fetch_add(size, std::memory_order_relaxed);
    b.slab_ = std::make_shared_for_overwrite<std::uint8_t[]>(size);
    b.cap_ = size;
    b.len_ = size;
    return b;
  }

  static std::uint64_t word_at(std::uint64_t seed, std::uint64_t index) {
    std::uint64_t z = seed + index * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Copy-on-write: gives this view a private slab before a mutation.
  void own() {
    if (slab_.use_count() > 1) *this = Buffer(std::as_const(*this).data(), len_);
  }

  static inline std::atomic<std::uint64_t> slab_bytes_allocated_{0};

  std::shared_ptr<std::uint8_t[]> slab_;
  std::size_t cap_ = 0;  // slab size
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace vread::mem
