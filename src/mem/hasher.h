// Streaming 64-bit payload hasher (XXH64 layout: four 64-bit lanes over
// 32-byte stripes, seed 0).
//
// The digest is a function of the concatenated bytes only: a stream fed
// in any number of update() calls, split at any points, digests exactly
// like one update() over the whole. Partial stripes are carried between
// calls, so readers can hash a payload as it arrives in pieces and compare
// the result against Buffer::checksum() of the whole.
//
// hash_pages() is the same function over whole kHashPage pages, batched:
// on hosts with AVX-512F/DQ (detected once, at run time) it hashes
// kPageBatch pages side by side, one page's four lanes in each half of a
// zmm register, and returns for each page exactly Hasher::hash(page,
// kHashPage). A short batch, and every batch on other hosts, takes the
// scalar path. The block cache's page digests (Buffer::page_digest) are
// built from it.
//
// This is the only payload hash in the tree. The dispatch digest, the
// host-name seed fold and obs::fnv1a hash control data, not payload, and
// keep their own FNV chains.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vread::mem {

// Little-endian 64-bit load/store (payload words have one byte order on
// every host, so digests and generated content are portable).
inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

// The XXH64 primes and the steps a stream's lanes go through; Hasher and
// the batched page kernel share them.
namespace xxh64 {

inline constexpr std::size_t kStripe = 32;
inline constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
inline constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
inline constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
inline constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
inline constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;
// The four lanes before the first stripe (seed 0).
inline constexpr std::uint64_t kLanes0[4] = {kP1 + kP2, kP2, 0, 0 - kP1};

inline std::uint64_t round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

// The lanes of a stream of at least one stripe, folded into one word.
inline std::uint64_t converge(const std::uint64_t acc[4]) {
  std::uint64_t h = std::rotl(acc[0], 1) + std::rotl(acc[1], 7) + std::rotl(acc[2], 12) +
                    std::rotl(acc[3], 18);
  for (int i = 0; i < 4; ++i) h = (h ^ round(0, acc[i])) * kP1 + kP4;
  return h;
}

inline std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace xxh64

class Hasher {
 public:
  void update(const std::uint8_t* p, std::size_t n) {
    total_ += n;
    if (buffered_ > 0) {
      // Top up the partial stripe; a short input ends here. The copy is
      // bounded by the room left, which GCC 12 can see (-Warray-bounds).
      const std::size_t fill = std::min(n, kStripe - buffered_);
      std::memcpy(buf_ + buffered_, p, fill);
      buffered_ += fill;
      if (buffered_ < kStripe) return;
      stripe(buf_);
      p += fill;
      n -= fill;
    }
    for (; n >= kStripe; p += kStripe, n -= kStripe) stripe(p);
    if (n > 0) std::memcpy(buf_, p, n);
    buffered_ = n;
  }

  std::uint64_t digest() const {
    using namespace xxh64;
    std::uint64_t h = (total_ >= kStripe ? converge(acc_) : kP5) + total_;
    const std::uint8_t* p = buf_;
    std::size_t n = buffered_;
    for (; n >= 8; p += 8, n -= 8) h = std::rotl(h ^ round(0, load_le64(p)), 27) * kP1 + kP4;
    if (n >= 4) {
      const std::uint64_t w = static_cast<std::uint64_t>(p[0]) | std::uint64_t{p[1]} << 8 |
                              std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24;
      h = std::rotl(h ^ (w * kP1), 23) * kP2 + kP3;
      p += 4;
      n -= 4;
    }
    for (; n > 0; ++p, --n) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
    return avalanche(h);
  }

  static std::uint64_t hash(const std::uint8_t* p, std::size_t n) {
    Hasher h;
    h.update(p, n);
    return h.digest();
  }

 private:
  static constexpr std::size_t kStripe = xxh64::kStripe;

  void stripe(const std::uint8_t* p) {
    for (int i = 0; i < 4; ++i) acc_[i] = xxh64::round(acc_[i], load_le64(p + 8 * i));
  }

  std::uint64_t acc_[4] = {xxh64::kLanes0[0], xxh64::kLanes0[1], xxh64::kLanes0[2],
                           xxh64::kLanes0[3]};
  std::uint64_t total_ = 0;
  std::size_t buffered_ = 0;
  std::uint8_t buf_[kStripe] = {};
};

// The page size of hash_pages(), and of Buffer's page digests.
inline constexpr std::size_t kHashPage = 4096;
// The pages hash_pages() hashes side by side on an AVX-512 host.
inline constexpr std::size_t kPageBatch = 16;

// out[i] = Hasher::hash(pages[i], kHashPage) for i < n. The pages need not
// be contiguous or aligned.
void hash_pages(const std::uint8_t* const pages[], std::size_t n, std::uint64_t out[]);

}  // namespace vread::mem
