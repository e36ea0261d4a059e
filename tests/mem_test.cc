// Unit tests for buffers, the payload hasher and the page cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "mem/buffer.h"
#include "mem/hasher.h"
#include "mem/page_cache.h"
#include "sim/random.h"

namespace vread::mem {
namespace {

TEST(Buffer, DeterministicContentIsOffsetAddressable) {
  Buffer whole = Buffer::deterministic(42, 0, 1000);
  Buffer tail = Buffer::deterministic(42, 500, 500);
  EXPECT_EQ(whole.slice(500, 500), tail);
}

TEST(Buffer, DifferentSeedsDiffer) {
  Buffer a = Buffer::deterministic(1, 0, 256);
  Buffer b = Buffer::deterministic(2, 0, 256);
  EXPECT_NE(a, b);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(Buffer, ChecksumDetectsCorruption) {
  Buffer a = Buffer::deterministic(7, 0, 4096);
  std::uint64_t sum = a.checksum();
  a[100] ^= 0xff;
  EXPECT_NE(a.checksum(), sum);
}

TEST(Buffer, AppendAndSlice) {
  Buffer a = Buffer::deterministic(3, 0, 100);
  Buffer b = Buffer::deterministic(3, 100, 50);
  Buffer joined = a;
  joined.append(b);
  EXPECT_EQ(joined.size(), 150u);
  EXPECT_EQ(joined, Buffer::deterministic(3, 0, 150));
  EXPECT_EQ(joined.slice(100, 50), b);
}

TEST(Buffer, EmptyChecksumIsStable) {
  Buffer e;
  EXPECT_EQ(e.checksum(), 0xef46db3751d8e999ULL);  // XXH64 of no bytes, seed 0
  EXPECT_EQ(Buffer::deterministic(1, 0, 64).slice(10, 0).checksum(), e.checksum());
  EXPECT_TRUE(e.empty());
}

TEST(Hasher, MatchesXxh64ReferenceVectors) {
  const auto* abc = reinterpret_cast<const std::uint8_t*>("abc");
  EXPECT_EQ(Hasher::hash(abc, 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Hasher::hash(abc, 3), 0x44bc2cf5ad770999ULL);
}

TEST(Hasher, DigestIgnoresHowInputIsSplit) {
  const Buffer src = Buffer::deterministic(11, 3, 5000);
  const std::uint64_t whole = src.checksum();
  sim::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    // Random splits, biased toward pieces shorter than one 32-byte stripe,
    // starting at unaligned offsets of the source.
    Hasher h;
    std::size_t pos = 0;
    while (pos < src.size()) {
      const std::uint64_t cap = trial % 2 == 0 ? 40 : 700;
      const std::size_t n = std::min<std::size_t>(rng.uniform(0, cap), src.size() - pos);
      h.update(src.data() + pos, n);
      pos += n;
    }
    ASSERT_EQ(h.digest(), whole) << "trial " << trial;
  }
  // Byte at a time, and a digest taken mid-stream leaves the stream intact.
  Hasher bytewise;
  for (std::size_t i = 0; i < src.size(); ++i) {
    bytewise.update(src.data() + i, 1);
    if (i == 17) EXPECT_EQ(bytewise.digest(), src.slice(0, 18).checksum());
  }
  EXPECT_EQ(bytewise.digest(), whole);
}

TEST(Hasher, UnalignedStartsMatchAlignedCopies) {
  const Buffer src = Buffer::deterministic(12, 0, 4096);
  for (std::size_t start = 0; start < 9; ++start) {
    for (std::size_t len : {0u, 1u, 7u, 31u, 32u, 33u, 100u, 1000u}) {
      const Buffer view = src.slice(start, len);
      const Buffer copy(view.data(), view.size());  // fresh, aligned slab
      EXPECT_EQ(view.checksum(), copy.checksum()) << start << "+" << len;
    }
  }
}

// Flips one byte at `pos` and checks the digest moves, then restores it.
void expect_flip_changes_digest(Buffer& b, std::uint64_t base, std::size_t pos) {
  b[pos] ^= 0x5a;
  EXPECT_NE(b.checksum(), base) << "size " << b.size() << " byte " << pos;
  b[pos] ^= 0x5a;
}

TEST(Hasher, SingleByteChangesChangeTheDigest) {
  // Every position of a buffer shorter than four stripes (tail-only path).
  Buffer small = Buffer::deterministic(13, 0, 100);
  const std::uint64_t small_base = small.checksum();
  for (std::size_t i = 0; i < small.size(); ++i) expect_flip_changes_digest(small, small_base, i);
  EXPECT_EQ(small.checksum(), small_base);
  // A 300 KiB buffer: every position is O(n^2) hashing, so check every
  // byte of both ends and of the 256 KiB mark, plus a prime stride that
  // visits every offset within a stripe across the whole buffer.
  Buffer big = Buffer::deterministic(13, 0, 300 * 1024);
  const std::uint64_t big_base = big.checksum();
  const std::size_t n = big.size();
  for (std::size_t i = 0; i < 512; ++i) {
    expect_flip_changes_digest(big, big_base, i);
    expect_flip_changes_digest(big, big_base, n - 1 - i);
    expect_flip_changes_digest(big, big_base, 256 * 1024 - 256 + i);
  }
  for (std::size_t i = 0; i < n; i += 257) expect_flip_changes_digest(big, big_base, i);
  EXPECT_EQ(big.checksum(), big_base);
}

TEST(Buffer, DeterministicMatchesByteAtAtUnalignedRanges) {
  for (std::uint64_t off : {0u, 1u, 5u, 7u, 8u, 9u, 4093u}) {
    for (std::size_t len : {0u, 1u, 3u, 8u, 15u, 16u, 17u, 250u}) {
      const Buffer b = Buffer::deterministic(14, off, len);
      ASSERT_EQ(b.size(), len);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(b[i], Buffer::byte_at(14, off + i)) << off << "+" << i;
      }
    }
  }
}

TEST(Buffer, CopyOnWriteIsolatesEveryView) {
  const Buffer pristine = Buffer::deterministic(15, 0, 256);
  Buffer source = pristine;
  Buffer copy = source;
  const Buffer slice = source.slice(64, 64);
  copy[70] ^= 0xff;  // mutate a copy: source and slice keep their bytes
  EXPECT_EQ(source, pristine);
  EXPECT_EQ(slice, pristine.slice(64, 64));
  EXPECT_NE(copy, pristine);
  source.data()[64] ^= 0xff;  // mutate the source: copy and slice unaffected
  EXPECT_EQ(slice, pristine.slice(64, 64));
  EXPECT_EQ(copy[64], pristine[64]);
  EXPECT_NE(copy[70], pristine[70]);
  EXPECT_NE(source[64], pristine[64]);
  EXPECT_EQ(source[70], pristine[70]);
  Buffer sliced = pristine.slice(8, 16);  // mutating a slice leaves the parent
  sliced[0] = static_cast<std::uint8_t>(pristine[8] + 1);
  EXPECT_EQ(pristine, Buffer::deterministic(15, 0, 256));
  EXPECT_EQ(sliced.slice(1, 15), pristine.slice(9, 15));
}

TEST(Buffer, SlicesOfSlices) {
  const Buffer whole = Buffer::deterministic(16, 0, 1000);
  const Buffer a = whole.slice(100, 800);
  const Buffer b = a.slice(50, 600);
  const Buffer c = b.slice(7, 13);
  EXPECT_EQ(b, Buffer::deterministic(16, 150, 600));
  EXPECT_EQ(c, Buffer::deterministic(16, 157, 13));
  EXPECT_EQ(c.checksum(), Buffer::deterministic(16, 157, 13).checksum());
  EXPECT_TRUE(a.slice(800, 0).empty());
}

TEST(Buffer, AppendAdoptsGrowsAndCopiesOnShare) {
  const Buffer whole = Buffer::deterministic(17, 0, 300);
  // Adopt-on-empty: the result is the appended view itself.
  Buffer acc;
  acc.append(whole.slice(0, 100));
  EXPECT_EQ(acc, whole.slice(0, 100));
  // acc shares its slab with `whole`: the append copies and leaves `whole`.
  acc.append(Buffer::deterministic(99, 0, 50));
  EXPECT_EQ(acc.slice(0, 100), whole.slice(0, 100));
  EXPECT_EQ(acc.slice(100, 50), Buffer::deterministic(99, 0, 50));
  EXPECT_EQ(whole, Buffer::deterministic(17, 0, 300));
  // Sole owner: further appends grow in place and stay correct.
  for (int i = 0; i < 10; ++i) acc.append(whole.slice(100 + 20 * i, 20));
  EXPECT_EQ(acc.size(), 350u);
  EXPECT_EQ(acc.slice(150, 200), whole.slice(100, 200));
  // Appending onto a shared view never shows through the other view.
  const Buffer snapshot = acc;
  const Buffer head = acc.slice(0, 150);
  acc.append(whole.slice(0, 10));
  EXPECT_EQ(snapshot.size(), 350u);
  EXPECT_EQ(acc.slice(0, 350), snapshot);
  EXPECT_EQ(acc.slice(350, 10), whole.slice(0, 10));
  Buffer grown = head;  // a prefix view of a longer slab
  grown.append(whole.slice(200, 5));
  EXPECT_EQ(grown.slice(150, 5), whole.slice(200, 5));
  EXPECT_EQ(snapshot.slice(150, 5), acc.slice(150, 5));
  EXPECT_EQ(acc.slice(0, 350), snapshot);
  // Self-append.
  Buffer twice = whole.slice(0, 40);
  twice.append(twice);
  EXPECT_EQ(twice.slice(40, 40), whole.slice(0, 40));
}

TEST(Buffer, AdjacentAppendExtendsTheViewWithoutMovingBytes) {
  const Buffer whole = Buffer::deterministic(19, 0, 4096);
  const std::uint64_t allocated = Buffer::slab_bytes_allocated();
  Buffer acc = whole.slice(0, 1024);
  acc.append(whole.slice(1024, 1024));
  acc.append(whole.slice(2048, 2048));
  acc.append(Buffer());
  EXPECT_EQ(std::as_const(acc).data(), whole.data());  // still a view of `whole`
  EXPECT_EQ(acc, whole);
  EXPECT_EQ(Buffer::slab_bytes_allocated(), allocated);
  // A view continuing a slice of a slice is adjacent too.
  const Buffer mid = whole.slice(1000, 2000);
  Buffer tail = mid.slice(0, 500);
  tail.append(mid.slice(500, 1500));
  EXPECT_EQ(std::as_const(tail).data(), whole.data() + 1000);
  EXPECT_EQ(tail, mid);
  EXPECT_EQ(Buffer::slab_bytes_allocated(), allocated);
}

TEST(Buffer, NonAdjacentAndCrossSlabAppendsCopyCorrectly) {
  const Buffer whole = Buffer::deterministic(20, 0, 400);
  const auto concat = [](const Buffer& a, const Buffer& b) {
    std::vector<std::uint8_t> v(a.data(), a.data() + a.size());
    v.insert(v.end(), b.data(), b.data() + b.size());
    return Buffer(v.data(), v.size());
  };
  // Same slab, with a gap, backwards and overlapping: each copies.
  for (const auto& [first, second] :
       {std::pair{whole.slice(0, 100), whole.slice(200, 100)},
        std::pair{whole.slice(100, 100), whole.slice(0, 100)},
        std::pair{whole.slice(0, 100), whole.slice(50, 100)}}) {
    Buffer acc = first;
    acc.append(second);
    EXPECT_NE(std::as_const(acc).data(), first.data());
    EXPECT_EQ(acc, concat(first, second));
  }
  // Equal bytes in another slab at the adjacent offset are not adjacent.
  const Buffer twin = Buffer::deterministic(20, 0, 400);
  Buffer acc = whole.slice(0, 200);
  acc.append(twin.slice(200, 200));
  EXPECT_EQ(acc, whole);
  EXPECT_NE(std::as_const(acc).data(), whole.data());
  EXPECT_EQ(whole, Buffer::deterministic(20, 0, 400));
  EXPECT_EQ(twin, Buffer::deterministic(20, 0, 400));
}

TEST(Buffer, WritingThroughAnAdjacentAppendedViewCopiesFirst) {
  const Buffer whole = Buffer::deterministic(21, 0, 512);
  Buffer acc = whole.slice(0, 256);
  acc.append(whole.slice(256, 256));
  acc[300] ^= 0xff;
  EXPECT_EQ(whole, Buffer::deterministic(21, 0, 512));
  EXPECT_NE(std::as_const(acc).data(), whole.data());
  EXPECT_NE(acc[300], whole[300]);
  EXPECT_EQ(acc.slice(0, 300), whole.slice(0, 300));
  EXPECT_EQ(acc.slice(301, 211), whole.slice(301, 211));
}

TEST(Buffer, SlabBytesAllocatedCountsMaterialisedBytesOnly) {
  const std::uint64_t before = Buffer::slab_bytes_allocated();
  const Buffer a = Buffer::deterministic(22, 0, 1000);
  EXPECT_EQ(Buffer::slab_bytes_allocated() - before, 1000u);
  const Buffer copy = a;
  const Buffer part = a.slice(10, 100);
  EXPECT_EQ(Buffer::slab_bytes_allocated() - before, 1000u);  // views are free
  Buffer acc = a.slice(0, 100);
  acc.append(a.slice(500, 50));  // non-adjacent: one slab twice the new length
  EXPECT_EQ(Buffer::slab_bytes_allocated() - before, 1000u + 300u);
  const Buffer filled = Buffer::filled(64, [](std::uint8_t* out) { std::memset(out, 7, 64); });
  EXPECT_EQ(Buffer::slab_bytes_allocated() - before, 1000u + 300u + 64u);
  EXPECT_EQ(filled.data()[63], 7);
}

TEST(Buffer, CompactSharesWholeSlabsAndCopiesPartialViews) {
  const Buffer whole = Buffer::deterministic(18, 0, 512);
  const Buffer same = whole.compact();
  EXPECT_EQ(same.data(), whole.data());  // spans its slab: no copy
  const Buffer part = whole.slice(10, 100).compact();
  EXPECT_NE(part.data(), whole.data() + 10);  // private exact-size slab
  EXPECT_EQ(part, whole.slice(10, 100));
}

TEST(PageCache, MissThenHit) {
  PageCache cache(1 << 20);  // 256 pages
  EXPECT_EQ(cache.miss_bytes(1, 0, 8192), 8192u);
  cache.fill(1, 0, 8192);
  EXPECT_EQ(cache.miss_bytes(1, 0, 8192), 0u);
  EXPECT_EQ(cache.resident_pages(), 2u);
}

TEST(PageCache, PartialRangeMiss) {
  PageCache cache(1 << 20);
  cache.fill(1, 0, 4096);  // page 0 only
  // Range spans pages 0 and 1; only page 1's span misses.
  EXPECT_EQ(cache.miss_bytes(1, 2048, 4096), 2048u);
}

TEST(PageCache, ObjectsAreIndependent) {
  PageCache cache(1 << 20);
  cache.fill(1, 0, 4096);
  EXPECT_EQ(cache.miss_bytes(2, 0, 4096), 4096u);
  cache.invalidate_object(1);
  EXPECT_EQ(cache.miss_bytes(1, 0, 4096), 4096u);
}

TEST(PageCache, LruEvictionOrder) {
  PageCache cache(4 * 4096);  // 4 pages
  cache.fill(1, 0, 4 * 4096);  // pages 0..3
  // Touch page 0 so page 1 becomes LRU.
  EXPECT_EQ(cache.miss_bytes(1, 0, 4096), 0u);
  // Insert a new page; page 1 should be evicted.
  cache.fill(1, 4 * 4096, 4096);
  EXPECT_EQ(cache.miss_bytes(1, 0, 4096), 0u);          // page 0 still in
  EXPECT_EQ(cache.miss_bytes(1, 4096, 4096), 4096u);    // page 1 evicted
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(PageCache, ZeroCapacityNeverCaches) {
  PageCache cache(0);
  cache.fill(1, 0, 8192);
  EXPECT_EQ(cache.miss_bytes(1, 0, 8192), 8192u);
  EXPECT_EQ(cache.resident_pages(), 0u);
}

TEST(PageCache, ZeroLengthRange) {
  PageCache cache(1 << 20);
  EXPECT_EQ(cache.miss_bytes(1, 0, 0), 0u);
  cache.fill(1, 0, 0);
  EXPECT_EQ(cache.resident_pages(), 0u);
}

TEST(PageCache, HitMissCounters) {
  PageCache cache(1 << 20);
  cache.miss_bytes(9, 0, 4096);
  cache.fill(9, 0, 4096);
  cache.miss_bytes(9, 0, 4096);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

}  // namespace
}  // namespace vread::mem
