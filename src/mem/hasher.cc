// The batched page kernel behind hash_pages() (hasher.h).
//
// XXH64 keeps four independent 64-bit lanes per stream. The AVX-512 kernel
// runs kPageBatch pages at once: each of 8 zmm chains holds the four lanes
// of two pages (two 32-byte stripe loads joined into one register), so one
// vpmullq/vprolq sequence advances both, and the 8 chains are independent,
// which hides the multiplier's latency. Each page ends with the scalar
// XXH64 finalisation, so every digest is bit-identical to Hasher::hash().
#include "mem/hasher.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VREAD_HASH_PAGES_AVX512 1
#include <immintrin.h>
#endif

namespace vread::mem {
namespace {

static_assert(kHashPage % xxh64::kStripe == 0, "a page is whole stripes: no tail to hash");

#ifdef VREAD_HASH_PAGES_AVX512

constexpr int kChains = kPageBatch / 2;

bool have_avx512() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
  }();
  return yes;
}

// The lanes of kPageBatch whole pages after their last stripe: page j's
// four lanes are acc[4 * j] .. acc[4 * j + 3]. GCC 12 defines the unmasked
// insert, broadcast and rotate intrinsics with an "undefined" pass-through
// operand that -Wuninitialized reports; their masked forms with a full or
// zeroing mask are the same instructions and name every operand.
__attribute__((target("avx512f,avx512dq"))) void page_lanes(const std::uint8_t* const pages[],
                                                            std::uint64_t acc[]) {
  const auto word = [](std::uint64_t v) { return static_cast<long long>(v); };
  const __m512i p1 = _mm512_set1_epi64(word(xxh64::kP1));
  const __m512i p2 = _mm512_set1_epi64(word(xxh64::kP2));
  const std::uint64_t* l = xxh64::kLanes0;
  const __m512i lanes0 = _mm512_set_epi64(word(l[3]), word(l[2]), word(l[1]), word(l[0]),
                                          word(l[3]), word(l[2]), word(l[1]), word(l[0]));
  __m512i chain[kChains];
  for (int c = 0; c < kChains; ++c) chain[c] = lanes0;
  for (std::size_t at = 0; at < kHashPage; at += xxh64::kStripe) {
#pragma GCC unroll 8
    for (int c = 0; c < kChains; ++c) {
      // One stripe of page 2c in the low half, the same stripe of page
      // 2c + 1 in the high half.
      const __m512i lo = _mm512_maskz_loadu_epi64(0x0f, pages[2 * c] + at);
      const __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pages[2 * c + 1] + at));
      const __m512i v = _mm512_mask_broadcast_i64x4(lo, 0xf0, hi);
      const __m512i sum = _mm512_add_epi64(chain[c], _mm512_mullo_epi64(v, p2));
      chain[c] = _mm512_mullo_epi64(_mm512_maskz_rol_epi64(0xff, sum, 31), p1);
    }
  }
  for (int c = 0; c < kChains; ++c) _mm512_storeu_si512(acc + 8 * c, chain[c]);
}

#endif

}  // namespace

void hash_pages(const std::uint8_t* const pages[], std::size_t n, std::uint64_t out[]) {
  std::size_t i = 0;
#ifdef VREAD_HASH_PAGES_AVX512
  if (n >= kPageBatch && have_avx512()) {
    for (; i + kPageBatch <= n; i += kPageBatch) {
      std::uint64_t acc[4 * kPageBatch] = {};
      page_lanes(pages + i, acc);
      for (std::size_t j = 0; j < kPageBatch; ++j) {
        out[i + j] = xxh64::avalanche(xxh64::converge(acc + 4 * j) + kHashPage);
      }
    }
  }
#endif
  for (; i < n; ++i) out[i] = Hasher::hash(pages[i], kHashPage);
}

}  // namespace vread::mem
