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
//  - The block cache digests a view by pages (DESIGN.md §17): its page
//    digest is the XXH64 of the little-endian XXH64 of each kPage piece,
//    counted from the view's start (the last piece may be short). It
//    depends only on the bytes. Whole pages are hashed kPageBatch at a
//    time by hash_pages() (hasher.h), which gives each page exactly its
//    Hasher::hash(); only the speed differs from a page-at-a-time loop.
//    page_digest() always hashes every byte: it is the one to *verify*
//    with. remembered_page_digest() may take whole pages from the slab's
//    memo, one digest per kPage page of the slab, filled on demand: use it
//    only to *establish* a reference digest. A shared slab is never
//    written, so its memo is exact; every in-place write (non-const
//    data(), operator[], append's in-place growth) drops the memo first.
//    The memo lives in the slab's header, so it dies with the slab and
//    keeps no slab alive. It is not thread-safe, and needs no lock: no
//    slab is shared across threads. Copying a Buffer is still safe across
//    threads (the reference count is atomic).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "mem/hasher.h"

namespace vread::mem {

namespace detail {

// The digests of one slab's whole Buffer::kPage pages, counted from the
// slab's start: one word per page plus one bit saying whether it is known
// yet.
class DigestMemo {
 public:
  explicit DigestMemo(std::size_t pages) : pages_(pages), words_(pages + (pages + 63) / 64) {}

  bool known(std::size_t page) const { return (words_[pages_ + page / 64] >> (page % 64)) & 1; }
  std::uint64_t digest(std::size_t page) const { return words_[page]; }
  void remember(std::size_t page, std::uint64_t digest) {
    words_[page] = digest;
    words_[pages_ + page / 64] |= std::uint64_t{1} << (page % 64);
  }
  // Bytes of the table: one word per page, then the "known" bits.
  std::size_t table_bytes() const { return words_.size() * sizeof(std::uint64_t); }

 private:
  std::size_t pages_;
  std::vector<std::uint64_t> words_;
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

  // The piece size of a page digest.
  static constexpr std::size_t kPage = kHashPage;

  // The page digest of the view, hashing every byte: the digest to verify
  // against.
  std::uint64_t page_digest() const { return digest_pages(nullptr); }

  // Equal to page_digest(), but a view that starts page-aligned in its
  // slab takes its whole pages from the slab's memo, hashing only pages
  // not digested before and the short tail. Only for establishing a
  // reference digest, never for verifying one: a verifier must hash the
  // bytes it checks.
  std::uint64_t remembered_page_digest() const {
    if (off_ % kPage != 0 || len_ < kPage) return digest_pages(nullptr);
    detail::DigestMemo*& memo = slab_->memo;
    if (memo == nullptr) memo = new detail::DigestMemo(cap_ / kPage);
    return digest_pages(memo);
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
  // kPage pieces (the last of a view may be short) hashed so far in this
  // process to build page digests, by either page_digest function.
  static std::uint64_t pages_digested() {
    return pages_digested_.load(std::memory_order_relaxed);
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

  // Hashes each kPage piece of the view, or takes a whole page's digest
  // from `memo` (filling it on a miss) when `memo` is non-null; the view
  // must then start page-aligned in its slab. Whole pages it must hash go
  // to hash_pages() kPageBatch at a time; the digests fold in page order.
  std::uint64_t digest_pages(detail::DigestMemo* memo) const {
    const std::uint8_t* p = data();
    const std::size_t whole = len_ / kPage;
    const std::size_t base = off_ / kPage;  // the first page's memo index
    Hasher outer;
    std::uint64_t hashed = 0;
    for (std::size_t first = 0; first < whole; first += kPageBatch) {
      const std::size_t n = std::min(kPageBatch, whole - first);
      std::uint64_t d[kPageBatch] = {};
      const std::uint8_t* todo[kPageBatch] = {};
      std::size_t slot[kPageBatch] = {};
      std::size_t m = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (memo != nullptr && memo->known(base + first + i)) {
          d[i] = memo->digest(base + first + i);
        } else {
          todo[m] = p + (first + i) * kPage;
          slot[m++] = i;
        }
      }
      std::uint64_t fresh[kPageBatch] = {};
      hash_pages(todo, m, fresh);
      for (std::size_t j = 0; j < m; ++j) {
        d[slot[j]] = fresh[j];
        if (memo != nullptr) memo->remember(base + first + slot[j], fresh[j]);
      }
      hashed += m;
      std::uint8_t le[8 * kPageBatch] = {};
      for (std::size_t i = 0; i < n; ++i) store_le64(le + 8 * i, d[i]);
      outer.update(le, 8 * n);
    }
    if (len_ % kPage != 0) {
      std::uint8_t le[8] = {};
      store_le64(le, Hasher::hash(p + whole * kPage, len_ % kPage));
      outer.update(le, sizeof le);
      ++hashed;
    }
    pages_digested_.fetch_add(hashed, std::memory_order_relaxed);
    return outer.digest();
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

  static inline std::atomic<std::uint64_t> pages_digested_{0};

  detail::SlabRef slab_;
  std::size_t cap_ = 0;  // slab size
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace vread::mem
