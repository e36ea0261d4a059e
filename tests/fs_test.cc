// Unit and property tests for the filesystem substrate: disk images, the
// on-image SimFs, and the host-side LoopMount with snapshot staleness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fs/disk_image.h"
#include "fs/loop_mount.h"
#include "fs/simfs.h"
#include "sim/random.h"

namespace vread::fs {
namespace {

using mem::Buffer;

DiskImagePtr make_image(std::uint64_t mb = 64) {
  return std::make_shared<DiskImage>(mb * 1024 * 1024);
}

TEST(DiskImage, ReadBackWhatWasWritten) {
  DiskImage img(1 << 20);
  Buffer data = Buffer::deterministic(1, 0, 10'000);
  img.write(1234, data);
  EXPECT_EQ(img.read(1234, 10'000), data);
}

TEST(DiskImage, UnwrittenRegionsReadZero) {
  DiskImage img(1 << 20);
  Buffer z = img.read(500'000, 64);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], 0);
}

TEST(DiskImage, WritesSpanChunkBoundaries) {
  DiskImage img(4 * 256 * 1024);
  Buffer data = Buffer::deterministic(2, 0, 256 * 1024 + 999);
  std::uint64_t off = 256 * 1024 - 77;
  img.write(off, data);
  EXPECT_EQ(img.read(off, data.size()), data);
}

TEST(DiskImage, SparseAllocation) {
  DiskImage img(1ULL << 40);  // 1 TB logical
  img.write(1ULL << 39, reinterpret_cast<const std::uint8_t*>("x"), 1);
  EXPECT_LE(img.allocated_bytes(), 2 * 256 * 1024);
  EXPECT_EQ(img.size(), 1ULL << 40);
}

// Random overlapping writes, raw and Buffer, against a flat reference: the
// run store must trim and split exactly, and every range — inside one run,
// across runs, over holes — must read back what the reference holds.
TEST(DiskImage, RandomOverlappingWritesMatchAFlatReference) {
  constexpr std::uint64_t kSize = 1 << 16;
  DiskImage img(kSize);
  std::vector<std::uint8_t> ref(kSize, 0);
  sim::Rng rng(0x5eed);
  std::vector<Buffer> earlier;  // views taken along the way, with their bytes
  std::vector<std::vector<std::uint8_t>> earlier_bytes;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t off = rng.uniform(0, kSize - 1);
    const std::uint64_t len = rng.uniform(1, std::min<std::uint64_t>(kSize - off, 3000));
    const Buffer data = Buffer::deterministic(static_cast<std::uint64_t>(i), off, len);
    if (i % 2 == 0) {
      img.write(off, data);
    } else {
      img.write(off, data.data(), data.size());
    }
    std::memcpy(ref.data() + off, data.data(), len);

    const std::uint64_t roff = rng.uniform(0, kSize - 1);
    const std::uint64_t rlen = rng.uniform(0, std::min<std::uint64_t>(kSize - roff, 5000));
    const Buffer got = img.read(roff, rlen);
    ASSERT_EQ(got.size(), rlen);
    ASSERT_TRUE(std::equal(got.data(), got.data() + rlen, ref.begin() + roff)) << "write " << i;
    std::vector<std::uint8_t> raw(rlen);
    img.read(roff, raw.data(), rlen);
    ASSERT_TRUE(std::equal(raw.begin(), raw.end(), ref.begin() + roff)) << "write " << i;
    if (i % 10 == 0) {
      earlier.push_back(got);
      earlier_bytes.emplace_back(ref.begin() + roff, ref.begin() + roff + rlen);
    }
  }
  // Later overwrites never reach into a view handed out earlier.
  for (std::size_t k = 0; k < earlier.size(); ++k) {
    const Buffer& view = earlier[k];
    EXPECT_TRUE(std::equal(view.data(), view.data() + view.size(), earlier_bytes[k].begin()));
  }
  EXPECT_LE(img.allocated_bytes(), kSize);
}

TEST(DiskImage, ViewTakenBeforeAnOverwriteKeepsItsBytes) {
  DiskImage img(1 << 20);
  img.write(4096, Buffer::deterministic(3, 0, 8192));
  const Buffer before = img.read(4096, 8192);
  const Buffer inner = img.read(6000, 100);
  img.write(5000, Buffer::deterministic(4, 0, 2000));  // splits the run
  img.write(4096, Buffer::deterministic(5, 0, 8192));  // replaces it whole
  EXPECT_EQ(before, Buffer::deterministic(3, 0, 8192));
  EXPECT_EQ(inner, Buffer::deterministic(3, 6000 - 4096, 100));
  EXPECT_EQ(img.read(4096, 8192), Buffer::deterministic(5, 0, 8192));
}

TEST(DiskImage, ReadsInsideOneRunAreViewsOfIt) {
  DiskImage img(1 << 20);
  const Buffer data = Buffer::deterministic(6, 0, 65536);
  img.write(1000, data);
  const Buffer a = img.read(1000 + 4096, 4096);
  const Buffer b = img.read(1000 + 4096, 4096);
  EXPECT_EQ(a.data(), b.data());
  // A whole-slab write is adopted, not copied.
  const Buffer whole = img.read(1000, data.size());
  EXPECT_EQ(whole.data(), data.data());
}

TEST(DiskImage, MutatingTheCallersBufferAfterWriteLeavesTheImageUnchanged) {
  DiskImage img(1 << 20);
  Buffer data = Buffer::deterministic(7, 0, 4096);
  img.write(0, data);
  data[0] ^= 0xff;
  data[4095] ^= 0xff;
  EXPECT_EQ(img.read(0, 4096), Buffer::deterministic(7, 0, 4096));
  // A view handed out by a read is just as isolated the other way round.
  Buffer view = img.read(0, 4096);
  view[10] ^= 0xff;
  EXPECT_EQ(img.read(0, 4096), Buffer::deterministic(7, 0, 4096));
}

TEST(DiskImage, HolesBetweenAndAroundRunsReadZero) {
  DiskImage img(1 << 20);
  const Buffer a = Buffer::deterministic(8, 0, 100);
  const Buffer b = Buffer::deterministic(9, 0, 100);
  img.write(1000, a);
  img.write(1300, b);
  const Buffer got = img.read(900, 600);  // hole, a, hole, b, hole
  ASSERT_EQ(got.size(), 600u);
  for (std::size_t i = 0; i < 600; ++i) {
    const std::size_t pos = 900 + i;
    std::uint8_t want = 0;
    if (pos >= 1000 && pos < 1100) want = a.data()[pos - 1000];
    if (pos >= 1300 && pos < 1400) want = b.data()[pos - 1300];
    ASSERT_EQ(got.data()[i], want) << "byte " << pos;
  }
  EXPECT_EQ(img.allocated_bytes(), 200u);
}

TEST(DiskImage, IdsAreUnique) {
  DiskImage a(4096), b(4096);
  EXPECT_NE(a.id(), b.id());
}

TEST(SimFs, FormatAndReopen) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  EXPECT_EQ(fs.superblock().magic, kFsMagic);
  // Reopen from the same image parses the same superblock.
  SimFs again(img);
  EXPECT_EQ(again.superblock().generation, fs.superblock().generation);
  EXPECT_EQ(again.superblock().root_inode, fs.superblock().root_inode);
}

TEST(SimFs, OpenUnformattedImageThrows) {
  auto img = make_image(1);
  EXPECT_THROW(SimFs fs(img), FsError);
}

TEST(SimFs, CreateWriteRead) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  Buffer data = Buffer::deterministic(7, 0, 100'000);
  std::uint32_t ino = fs.write_file("/blk_001", data);
  EXPECT_EQ(fs.file_size(ino), 100'000u);
  EXPECT_EQ(fs.read(ino, 0, 100'000), data);
}

TEST(SimFs, SubRangeReadsMatch) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  Buffer data = Buffer::deterministic(8, 0, 50'000);
  std::uint32_t ino = fs.write_file("/f", data);
  EXPECT_EQ(fs.read(ino, 10'000, 5'000), data.slice(10'000, 5'000));
  EXPECT_EQ(fs.read(ino, 49'999, 1), data.slice(49'999, 1));
  // Reads past EOF are clamped.
  EXPECT_EQ(fs.read(ino, 49'000, 10'000).size(), 1'000u);
}

TEST(SimFs, AppendExtendsFile) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  std::uint32_t ino = fs.create("/f");
  Buffer a = Buffer::deterministic(9, 0, 6'000);
  Buffer b = Buffer::deterministic(9, 6'000, 6'000);
  fs.append(ino, a);
  fs.append(ino, b);
  EXPECT_EQ(fs.file_size(ino), 12'000u);
  EXPECT_EQ(fs.read(ino, 0, 12'000), Buffer::deterministic(9, 0, 12'000));
}

TEST(SimFs, UnalignedAppendsPreserveContent) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  std::uint32_t ino = fs.create("/f");
  std::uint64_t off = 0;
  for (std::uint64_t n : {1ULL, 4095ULL, 4096ULL, 4097ULL, 123ULL, 20000ULL}) {
    fs.append(ino, Buffer::deterministic(5, off, n));
    off += n;
  }
  EXPECT_EQ(fs.read(ino, 0, off), Buffer::deterministic(5, 0, off));
}

TEST(SimFs, DirectoriesNest) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  fs.mkdir("/data");
  fs.mkdir("/data/current");
  fs.write_file("/data/current/blk_1", Buffer::deterministic(1, 0, 100));
  fs.write_file("/data/current/blk_2", Buffer::deterministic(2, 0, 100));
  EXPECT_TRUE(fs.exists("/data/current/blk_1"));
  EXPECT_FALSE(fs.exists("/data/current/blk_3"));
  auto entries = fs.list("/data/current");
  EXPECT_EQ(entries.size(), 2u);
}

TEST(SimFs, CreateDuplicateThrows) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  fs.create("/f");
  EXPECT_THROW(fs.create("/f"), FsError);
}

TEST(SimFs, MissingParentThrows) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  EXPECT_THROW(fs.create("/nodir/f"), FsError);
}

TEST(SimFs, RemoveAndRename) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  fs.write_file("/a", Buffer::deterministic(1, 0, 10));
  fs.rename("/a", "/b");
  EXPECT_FALSE(fs.exists("/a"));
  EXPECT_TRUE(fs.exists("/b"));
  fs.remove("/b");
  EXPECT_FALSE(fs.exists("/b"));
}

TEST(SimFs, GenerationBumpsOnEveryMutation) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  std::uint64_t g0 = fs.generation();
  fs.mkdir("/d");
  std::uint64_t g1 = fs.generation();
  EXPECT_GT(g1, g0);
  std::uint32_t ino = fs.create("/d/f");
  std::uint64_t g2 = fs.generation();
  EXPECT_GT(g2, g1);
  fs.append(ino, Buffer::deterministic(1, 0, 10));
  EXPECT_GT(fs.generation(), g2);
}

TEST(SimFs, ImageFullThrows) {
  auto img = std::make_shared<DiskImage>(64 * 4096);  // tiny: 64 blocks
  SimFs fs = SimFs::format(img, 16);
  std::uint32_t ino = fs.create("/f");
  EXPECT_THROW(fs.append(ino, Buffer::deterministic(1, 0, 10 * 1024 * 1024)), FsError);
}

TEST(SimFs, ManyFilesSurviveNamespaceChurn) {
  auto img = make_image(128);
  SimFs fs = SimFs::format(img);
  fs.mkdir("/current");
  for (int i = 0; i < 100; ++i) {
    std::string path = "/current/blk_" + std::to_string(i);
    fs.write_file(path, Buffer::deterministic(static_cast<std::uint64_t>(i), 0, 5000));
  }
  for (int i = 0; i < 100; ++i) {
    std::string path = "/current/blk_" + std::to_string(i);
    auto ino = fs.lookup(path);
    ASSERT_TRUE(ino.has_value()) << path;
    EXPECT_EQ(fs.read(*ino, 0, 5000),
              Buffer::deterministic(static_cast<std::uint64_t>(i), 0, 5000));
  }
}

// --- LoopMount: the vRead staleness/remount mechanism ---

TEST(LoopMount, SeesFilesPresentAtMountTime) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  Buffer data = Buffer::deterministic(3, 0, 20'000);
  fs.write_file("/blk", data);
  LoopMount mount(img);
  auto ino = mount.lookup("/blk");
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(mount.read(*ino, 0, 20'000), data);
  EXPECT_FALSE(mount.stale());
}

TEST(LoopMount, NewFilesInvisibleUntilRefresh) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  LoopMount mount(img);
  fs.write_file("/blk_new", Buffer::deterministic(4, 0, 1000));
  // Guest wrote after the mount snapshot: invisible + stale flag set.
  EXPECT_FALSE(mount.lookup("/blk_new").has_value());
  EXPECT_TRUE(mount.stale());
  mount.refresh();
  EXPECT_TRUE(mount.lookup("/blk_new").has_value());
  EXPECT_FALSE(mount.stale());
}

TEST(LoopMount, AppendedBytesInvisibleUntilRefresh) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  std::uint32_t ino = fs.create("/blk");
  fs.append(ino, Buffer::deterministic(5, 0, 1000));
  LoopMount mount(img);
  fs.append(ino, Buffer::deterministic(5, 1000, 1000));
  auto snap = mount.lookup("/blk");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->size, 1000u);  // stale size
  EXPECT_EQ(mount.read(*snap, 0, 999999).size(), 1000u);
  mount.refresh();
  snap = mount.lookup("/blk");
  EXPECT_EQ(snap->size, 2000u);
  EXPECT_EQ(mount.read(*snap, 0, 2000), Buffer::deterministic(5, 0, 2000));
}

TEST(LoopMount, SnapshotsNestedDirectories) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  fs.mkdir("/data");
  fs.mkdir("/data/current");
  fs.write_file("/data/current/blk_9", Buffer::deterministic(9, 0, 128));
  LoopMount mount(img);
  EXPECT_TRUE(mount.lookup("/data/current/blk_9").has_value());
  EXPECT_EQ(mount.file_count(), 1u);
}

TEST(LoopMount, WriteOncePropertyMakesStaleReadsCorrect) {
  // Property from the paper: because HDFS blocks are write-once, any block
  // visible in a snapshot reads byte-correct forever even while the guest
  // keeps creating new blocks.
  auto img = make_image(128);
  SimFs fs = SimFs::format(img);
  fs.mkdir("/current");
  fs.write_file("/current/blk_0", Buffer::deterministic(100, 0, 64 * 1024));
  LoopMount mount(img);
  for (int i = 1; i <= 20; ++i) {
    fs.write_file("/current/blk_" + std::to_string(i),
                  Buffer::deterministic(100 + static_cast<std::uint64_t>(i), 0, 64 * 1024));
    auto snap = mount.lookup("/current/blk_0");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(mount.read(*snap, 0, 64 * 1024), Buffer::deterministic(100, 0, 64 * 1024));
  }
  EXPECT_EQ(mount.file_count(), 1u);
  mount.refresh();
  EXPECT_EQ(mount.file_count(), 21u);
  EXPECT_EQ(mount.refresh_count(), 2u);
}

TEST(LoopMount, RemovedFileStillReadableFromSnapshot) {
  // Bump allocation never reuses blocks, so a stale snapshot of a deleted
  // file still reads the old bytes (and refresh makes it disappear).
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  Buffer data = Buffer::deterministic(6, 0, 5000);
  fs.write_file("/blk", data);
  LoopMount mount(img);
  fs.remove("/blk");
  auto snap = mount.lookup("/blk");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(mount.read(*snap, 0, 5000), data);
  mount.refresh();
  EXPECT_FALSE(mount.lookup("/blk").has_value());
}

}  // namespace
}  // namespace vread::fs
