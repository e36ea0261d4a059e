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
//  - A slab remembers the digests of up to DigestMemo::kEntries windows of
//    itself (DESIGN.md §17). checksum() always hashes the bytes: it is the
//    one to *verify* with. remembered_checksum() may answer from the memo:
//    use it only to *establish* a reference digest. A shared slab is never
//    written, so its memo is exact; every in-place write (non-const
//    data(), operator[], append's in-place growth) drops the memo first.
//    The memo lives in the slab's header, so it dies with the slab and
//    keeps no slab alive. It is not thread-safe, and needs no lock: no
//    slab is shared across threads. Copying a Buffer is still safe across
//    threads (the reference count is atomic).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "mem/hasher.h"

namespace vread::mem {

namespace detail {

// The digests remembered for windows of one slab, keyed by the window's
// offset in the slab and its length. Bounded; the oldest entry goes first.
struct DigestMemo {
  // One 4 MiB block chopped into 256 KiB stream chunks is 16 windows.
  static constexpr std::size_t kEntries = 16;
  struct Entry {
    std::size_t off;
    std::size_t len;
    std::uint64_t digest;
  };

  const std::uint64_t* find(std::size_t off, std::size_t len) const {
    for (std::size_t i = 0; i < used; ++i) {
      if (entries[i].off == off && entries[i].len == len) return &entries[i].digest;
    }
    return nullptr;
  }
  void remember(std::size_t off, std::size_t len, std::uint64_t digest) {
    entries[next] = {off, len, digest};
    next = (next + 1) % kEntries;
    if (used < kEntries) ++used;
  }

  Entry entries[kEntries]{};
  std::size_t used = 0;
  std::size_t next = 0;  // the slot written next: the oldest once full
};

// One allocation: this 16-byte header, then the payload bytes.
struct alignas(16) Slab {
  std::atomic<std::size_t> refs{1};
  DigestMemo* memo = nullptr;  // built on first use

  std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
};

// A counted reference to a Slab.
class SlabRef {
 public:
  SlabRef() = default;
  SlabRef(const SlabRef& o) noexcept : s_(o.s_) {
    if (s_) s_->refs.fetch_add(1);
  }
  SlabRef(SlabRef&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  SlabRef& operator=(SlabRef o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  ~SlabRef() {
    if (s_ && s_->refs.fetch_sub(1) == 1) {
      live.fetch_sub(1, std::memory_order_relaxed);
      delete s_->memo;
      s_->~Slab();
      ::operator delete(s_);
    }
  }

  // A fresh slab of `size` > 0 uninitialised bytes.
  static SlabRef allocate(std::size_t size) {
    allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    live.fetch_add(1, std::memory_order_relaxed);
    SlabRef r;
    r.s_ = new (::operator new(sizeof(Slab) + size)) Slab;
    return r;
  }

  Slab* operator->() const { return s_; }
  explicit operator bool() const { return s_ != nullptr; }
  bool operator==(const SlabRef& o) const { return s_ == o.s_; }
  // Only this reference reaches the slab, so writing its bytes is private.
  bool sole() const { return s_ && s_->refs.load() == 1; }
  // Forgets every remembered digest, before the slab's bytes change.
  void drop_memo() {
    if (s_->memo == nullptr) return;
    delete s_->memo;
    s_->memo = nullptr;
  }

  static inline std::atomic<std::uint64_t> allocated_bytes{0};
  static inline std::atomic<std::uint64_t> live{0};

 private:
  Slab* s_ = nullptr;
};

}  // namespace detail

class Buffer {
 public:
  Buffer() = default;
  // `size` zero bytes.
  explicit Buffer(std::size_t size) : Buffer(allocate(size)) {
    if (size > 0) std::memset(slab_->bytes(), 0, size);
  }
  Buffer(const std::uint8_t* p, std::size_t n) : Buffer(allocate(n)) {
    if (n > 0) std::memcpy(slab_->bytes(), p, n);
  }

  // `n` bytes written by `fill(std::uint8_t* out)`, which must write all
  // of them: the slab is not initialised first.
  template <typename Fill>
  static Buffer filled(std::size_t n, Fill&& fill) {
    Buffer b = allocate(n);
    if (n > 0) fill(b.slab_->bytes());
    return b;
  }

  // Deterministic pseudo-random content: the stream of `seed` is one
  // SplitMix64 word per 8 bytes (little-endian), so byte i is a pure
  // function of (seed, absolute_offset + i) and any sub-range of a file can
  // be regenerated and verified independently.
  static Buffer deterministic(std::uint64_t seed, std::uint64_t absolute_offset,
                              std::size_t size) {
    Buffer b = allocate(size);
    std::uint8_t* out = size > 0 ? b.slab_->bytes() : nullptr;
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
  const std::uint8_t* data() const { return slab_ ? slab_->bytes() + off_ : nullptr; }
  std::uint8_t* data() {
    own();
    return slab_ ? slab_->bytes() + off_ : nullptr;
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
    if (slab_.sole() && off_ + len_ + n <= cap_) {
      // A longer view, now gone, may have had these bytes digested.
      slab_.drop_memo();
      std::memcpy(slab_->bytes() + off_ + len_, p, n);
      len_ += n;
      return;
    }
    // `p` may point into the current slab: copy both before dropping it.
    Buffer grown = allocate(2 * (len_ + n));
    if (len_ > 0) std::memcpy(grown.slab_->bytes(), std::as_const(*this).data(), len_);
    std::memcpy(grown.slab_->bytes() + len_, p, n);
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

  // Hashes the bytes on every call: the digest to verify against.
  std::uint64_t checksum() const { return Hasher::hash(data(), len_); }

  // Equal to checksum(), but remembered by the slab per (offset, length)
  // window, so repeating it on any view of the same window hashes nothing.
  // Only for establishing a reference digest, never for verifying one: a
  // verifier must hash the bytes it checks.
  std::uint64_t remembered_checksum() const {
    if (len_ == 0) return checksum();
    detail::DigestMemo*& memo = slab_->memo;
    if (memo == nullptr) {
      memo = new detail::DigestMemo;
    } else if (const std::uint64_t* d = memo->find(off_, len_)) {
      return *d;
    }
    const std::uint64_t d = checksum();
    memo->remember(off_, len_, d);
    return d;
  }

  bool operator==(const Buffer& other) const {
    return len_ == other.len_ && (len_ == 0 || std::memcmp(data(), other.data(), len_) == 0);
  }

  // Bytes of every slab allocated so far in this process: the payload
  // bytes the host materialised, as opposed to views it handed around.
  static std::uint64_t slab_bytes_allocated() {
    return detail::SlabRef::allocated_bytes.load(std::memory_order_relaxed);
  }
  // Slabs that some view still reaches.
  static std::uint64_t slabs_live() {
    return detail::SlabRef::live.load(std::memory_order_relaxed);
  }

 private:
  // A view of a fresh, uninitialised slab of exactly `size` bytes.
  static Buffer allocate(std::size_t size) {
    Buffer b;
    if (size == 0) return b;
    b.slab_ = detail::SlabRef::allocate(size);
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

  // Copy-on-write: gives this view a private slab before a mutation. A
  // slab this view already owns alone keeps its bytes but drops its memo.
  void own() {
    if (!slab_) return;
    if (slab_.sole()) {
      slab_.drop_memo();
    } else {
      *this = Buffer(std::as_const(*this).data(), len_);
    }
  }

  detail::SlabRef slab_;
  std::size_t cap_ = 0;  // slab size
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace vread::mem
