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
    if (i == 17) {
      EXPECT_EQ(bytewise.digest(), src.slice(0, 18).checksum());
    }
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

// The batched page kernel gives each page exactly its Hasher::hash, for
// every batch length, from pages scattered over several slabs at
// page-aligned and unaligned starts.
TEST(Hasher, HashPagesEqualsTheHashOfEachPage) {
  constexpr std::size_t kPerSlab = 20;
  std::vector<Buffer> slabs;
  std::vector<const std::uint8_t*> pool;
  for (std::uint64_t s = 0; s < 3; ++s) {
    slabs.push_back(Buffer::deterministic(40 + s, 0, (kPerSlab + 1) * kHashPage));
    for (std::size_t i = 0; i < kPerSlab; ++i) {
      pool.push_back(slabs.back().data() + i * kHashPage + (i % 4) * 13);
    }
  }
  sim::Rng rng(40);
  for (std::size_t n = 0; n <= 40; ++n) {
    for (std::size_t i = pool.size() - 1; i > 0; --i) std::swap(pool[i], pool[rng.uniform(0, i)]);
    std::vector<std::uint64_t> out(n + 1, 0x5a5a);
    hash_pages(pool.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], Hasher::hash(pool[i], kHashPage)) << "page " << i << " of " << n;
    }
    EXPECT_EQ(out[n], 0x5a5au) << n;  // nothing written past the batch
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

// ---- page digests and the per-page memo (DESIGN.md §17) ----

// The page digest, written out: XXH64 over the little-endian XXH64 of each
// kPage piece, counted from the view's start.
std::uint64_t reference_page_digest(const std::uint8_t* p, std::size_t n) {
  std::vector<std::uint8_t> digests;
  for (std::size_t at = 0; at < n; at += Buffer::kPage) {
    std::uint8_t le[8];
    store_le64(le, Hasher::hash(p + at, std::min(Buffer::kPage, n - at)));
    digests.insert(digests.end(), le, le + 8);
  }
  return Hasher::hash(digests.data(), digests.size());
}

TEST(BufferMemo, PageDigestHashesEachPageFromTheViewsStart) {
  const Buffer whole = Buffer::deterministic(28, 0, 6 * Buffer::kPage);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, Buffer::kPage,
                                Buffer::kPage + 1, 3 * Buffer::kPage, 4 * Buffer::kPage + 7}) {
    for (const std::size_t off : {std::size_t{0}, std::size_t{5}, Buffer::kPage}) {
      const Buffer v = whole.slice(off, len);
      EXPECT_EQ(v.page_digest(), reference_page_digest(v.data(), len)) << off << "+" << len;
    }
  }
  // A function of the bytes only: another slab with the same bytes agrees.
  const Buffer copy(whole.data() + 5, 3 * Buffer::kPage);
  EXPECT_EQ(copy.page_digest(), whole.slice(5, 3 * Buffer::kPage).page_digest());
  EXPECT_NE(copy.page_digest(), whole.slice(6, 3 * Buffer::kPage).page_digest());
}

TEST(BufferMemo, RememberedChecksumEqualsTheHashOfRandomWindows) {
  const Buffer whole = Buffer::deterministic(23, 0, 1 << 16);
  sim::Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    // Every other window starts page-aligned, so the memo answers for it.
    std::size_t off = rng.uniform(0, whole.size() - 1);
    if (i % 2 == 0) off -= off % Buffer::kPage;
    const std::size_t len = rng.uniform(1, whole.size() - off);
    const std::uint64_t want = reference_page_digest(whole.data() + off, len);
    EXPECT_EQ(whole.slice(off, len).remembered_page_digest(), want) << off << "+" << len;
    // Asked again through another view of the same window: same answer.
    EXPECT_EQ(whole.slice(off, len).remembered_page_digest(), want) << off << "+" << len;
  }
  EXPECT_EQ(Buffer().remembered_page_digest(), Buffer().page_digest());
}

TEST(BufferMemo, WritingThroughDataOrIndexDropsTheMemo) {
  // Sole owners: writes land in place, in the second of two pages.
  Buffer via_data = Buffer::deterministic(24, 0, 2 * Buffer::kPage);
  Buffer via_index = Buffer::deterministic(24, 0, 2 * Buffer::kPage);
  const std::uint64_t before = via_data.remembered_page_digest();
  ASSERT_EQ(via_index.remembered_page_digest(), before);
  const std::uint8_t* slab = std::as_const(via_data).data();
  via_data.data()[Buffer::kPage + 100] ^= 0x01;
  via_index[Buffer::kPage + 100] ^= 0x01;
  EXPECT_EQ(std::as_const(via_data).data(), slab);  // no copy: the slab itself changed
  for (const Buffer* b : {&via_data, &via_index}) {
    // page_digest() re-hashes the bytes; the memo was dropped, not reused.
    EXPECT_NE(b->page_digest(), before);
    EXPECT_EQ(b->checksum(), Hasher::hash(b->data(), b->size()));
    EXPECT_EQ(b->remembered_page_digest(), b->page_digest());
  }
}

TEST(BufferMemo, InPlaceAppendOverADigestedWindowDropsTheMemo) {
  Buffer whole = Buffer::deterministic(25, 0, 2 * Buffer::kPage);
  const std::uint64_t old_tail = whole.slice(Buffer::kPage, Buffer::kPage).remembered_page_digest();
  // Keep only a prefix view: it owns the slab alone, so an append writes
  // the bytes the digested page covered, in place.
  Buffer head = whole.slice(0, Buffer::kPage);
  whole = Buffer();
  const std::uint8_t* slab = std::as_const(head).data();
  const Buffer other = Buffer::deterministic(99, 0, Buffer::kPage);
  head.append(other.data(), other.size());
  ASSERT_EQ(std::as_const(head).data(), slab);  // grown in place
  const Buffer tail = head.slice(Buffer::kPage, Buffer::kPage);
  EXPECT_EQ(tail, other);
  EXPECT_NE(tail.page_digest(), old_tail);
  EXPECT_EQ(tail.remembered_page_digest(), other.page_digest());
  EXPECT_EQ(head.remembered_page_digest(), head.page_digest());
}

TEST(BufferMemo, ManyDistinctWindowsStayCorrectAndTheMemoStaysBounded) {
  const Buffer whole = Buffer::deterministic(26, 0, 1 << 14);
  for (std::size_t i = 0; i < 1000; ++i) {
    // Unaligned starts, and page-aligned ones of every length.
    const std::size_t off = i % 2 ? (i * 13) % 4096 : ((i * 13) % 3) * Buffer::kPage;
    const std::size_t len = 1 + (i * 7919) % 8192;
    ASSERT_EQ(whole.slice(off, len).remembered_page_digest(),
              reference_page_digest(whole.data() + off, len))
        << i;
  }
  // The memo itself: one word per page plus one "known" bit, whatever was
  // asked; a page is unknown until remembered.
  constexpr std::size_t kN = 1000;
  detail::DigestMemo memo(kN);
  EXPECT_EQ(memo.table_bytes(), kN * sizeof(std::uint64_t) + (kN + 63) / 64 * 8);
  for (std::size_t i = 0; i < kN; i += 3) memo.remember(i, i * 3);
  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 3 != 0) {
      EXPECT_FALSE(memo.known(i)) << i;
    } else {
      ASSERT_TRUE(memo.known(i)) << i;
      EXPECT_EQ(memo.digest(i), i * 3);
    }
  }
}

TEST(BufferMemo, TheMemoKeepsNoSlabAlive) {
  const std::uint64_t live = Buffer::slabs_live();
  const std::uint64_t allocated = Buffer::slab_bytes_allocated();
  {
    const Buffer whole = Buffer::deterministic(27, 0, 1 << 16);
    for (std::size_t off = 0; off < whole.size(); off += 4096) {
      whole.slice(off, 4096).remembered_page_digest();
    }
    EXPECT_EQ(Buffer::slabs_live(), live + 1);
    EXPECT_EQ(Buffer::slab_bytes_allocated(), allocated + (1 << 16));  // payload only
  }
  EXPECT_EQ(Buffer::slabs_live(), live);
}

// A 16 MiB block chopped into 256 KiB windows, then chopped again 4 KiB
// further on (as a re-read with other request sizes would): the second
// chop's whole pages all come from the memo, and digest the same bytes.
TEST(BufferMemo, AShiftedChopHashesNoWholePageAgain) {
  constexpr std::size_t kBlock = 16 << 20;
  constexpr std::size_t kWindow = 256 << 10;
  const Buffer block = Buffer::deterministic(29, 0, kBlock);
  const std::uint64_t start = Buffer::pages_digested();
  for (std::size_t off = 0; off < kBlock; off += kWindow) {
    block.slice(off, kWindow).remembered_page_digest();
  }
  EXPECT_EQ(Buffer::pages_digested() - start, kBlock / Buffer::kPage);
  const std::uint64_t first = Buffer::pages_digested();
  std::vector<std::uint64_t> shifted;
  for (std::size_t off = Buffer::kPage; off < kBlock; off += kWindow) {
    shifted.push_back(block.slice(off, std::min(kWindow, kBlock - off)).remembered_page_digest());
  }
  EXPECT_EQ(Buffer::pages_digested(), first);  // no page hashed again
  // The memo's answers are the bytes' page digests.
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    const std::size_t off = Buffer::kPage + i * kWindow;
    ASSERT_EQ(shifted[i], block.slice(off, std::min(kWindow, kBlock - off)).page_digest()) << i;
  }
  // An unaligned view hashes every one of its pieces.
  const std::uint64_t before = Buffer::pages_digested();
  block.slice(1, 2 * Buffer::kPage + 10).remembered_page_digest();  // three pieces
  EXPECT_EQ(Buffer::pages_digested() - before, 3u);
}

// Random views of 0-70 whole pages plus a short tail, at page-aligned and
// unaligned starts, over a slab whose memo is partly known: both page
// digests equal the piece-by-piece reference, and every piece not taken
// from the memo is counted as hashed.
TEST(BufferMemo, BatchedPageDigestsMatchThePerPageHash) {
  constexpr std::size_t kSlabPages = 72;
  sim::Rng rng(30);
  for (int trial = 0; trial < 60; ++trial) {
    const Buffer slab = Buffer::deterministic(30 + trial, 0, kSlabPages * Buffer::kPage);
    std::vector<bool> known(kSlabPages, false);
    const std::uint64_t seeded = rng.uniform(0, 100);
    for (std::size_t page = 0; page < kSlabPages; ++page) {
      if (rng.uniform(0, 99) >= seeded) continue;
      slab.slice(page * Buffer::kPage, Buffer::kPage).remembered_page_digest();
      known[page] = true;
    }
    const std::size_t whole = rng.uniform(0, 70);
    const std::size_t tail = rng.uniform(0, 2) == 0 ? 0 : rng.uniform(1, Buffer::kPage - 1);
    const std::size_t len = whole * Buffer::kPage + tail;
    std::size_t off = rng.uniform(0, slab.size() - len);
    if (trial % 2 == 0) off -= off % Buffer::kPage;
    const Buffer v = slab.slice(off, len);
    const std::uint64_t want = reference_page_digest(v.data(), len);
    const std::uint64_t pieces = whole + (tail > 0 ? 1 : 0);

    std::uint64_t before = Buffer::pages_digested();
    ASSERT_EQ(v.page_digest(), want) << trial;
    EXPECT_EQ(Buffer::pages_digested() - before, pieces) << trial;

    std::uint64_t from_memo = 0;
    if (off % Buffer::kPage == 0 && len >= Buffer::kPage) {
      for (std::size_t i = 0; i < whole; ++i) from_memo += known[off / Buffer::kPage + i] ? 1 : 0;
    }
    before = Buffer::pages_digested();
    ASSERT_EQ(v.remembered_page_digest(), want) << trial;
    EXPECT_EQ(Buffer::pages_digested() - before, pieces - from_memo) << trial;
  }
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
  EXPECT_EQ(cache.miss_bytes(1, 0, 4096), 0u);
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
