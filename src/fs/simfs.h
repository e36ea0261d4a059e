// SimFs: a small extent-based filesystem stored *inside* a DiskImage.
//
// This plays the role of the datanode guest's ext4: the guest writes HDFS
// block files through it, and the hypervisor-side LoopMount (loop_mount.h)
// independently parses the same on-image bytes — exactly the structure that
// lets vRead's daemon read block files without involving the guest.
//
// On-image layout (4 KB blocks):
//   block 0                : superblock
//   blocks 1..T            : inode table (fixed 256-byte inodes)
//   blocks T+1..           : data area (bump allocation; append-only world)
//
// Files are extent lists (up to 14 extents per inode); directories store
// their entries as a serialized list in their data extents and are
// rewritten wholesale on change (directories stay small). The superblock
// `generation` counter bumps on every namespace or size change, which is
// what LoopMount uses to detect staleness.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fs/disk_image.h"
#include "mem/buffer.h"

namespace vread::fs {

class FsError : public std::runtime_error {
 public:
  explicit FsError(const std::string& what) : std::runtime_error(what) {}
};

constexpr std::uint32_t kFsBlockSize = 4096;
constexpr std::uint64_t kFsMagic = 0x53494d4653303031ULL;  // "SIMFS001"
constexpr std::uint32_t kInodeSize = 256;
constexpr std::uint32_t kMaxExtents = 14;
constexpr std::uint32_t kNoInode = 0xffffffffu;

enum class InodeType : std::uint8_t { kFree = 0, kFile = 1, kDir = 2 };

struct Extent {
  std::uint32_t start_block = 0;
  std::uint32_t block_count = 0;
};

struct Inode {
  std::uint32_t id = kNoInode;
  InodeType type = InodeType::kFree;
  std::uint64_t size = 0;
  std::uint32_t extent_count = 0;
  Extent extents[kMaxExtents] = {};
};

struct Superblock {
  std::uint64_t magic = kFsMagic;
  std::uint32_t block_size = kFsBlockSize;
  std::uint32_t inode_capacity = 0;
  std::uint32_t inode_table_start = 1;   // block index
  std::uint32_t inode_table_blocks = 0;
  std::uint32_t data_start = 0;          // block index
  std::uint32_t total_blocks = 0;
  std::uint32_t next_free_block = 0;     // bump allocator cursor
  std::uint32_t next_inode = 0;
  std::uint32_t root_inode = 0;
  std::uint64_t generation = 0;
};

struct DirEntry {
  std::uint32_t inode;
  std::string name;
};

// Pure on-image codec shared by the guest-side SimFs and the host-side
// LoopMount: both must parse identical bytes.
namespace layout {

Superblock read_superblock(const DiskImage& image);
void write_superblock(DiskImage& image, const Superblock& sb);
Inode read_inode(const DiskImage& image, const Superblock& sb, std::uint32_t id);
void write_inode(DiskImage& image, const Superblock& sb, const Inode& inode);

// Reads `len` bytes at `offset` within the file described by `inode`.
mem::Buffer read_file_range(const DiskImage& image, const Inode& inode,
                            std::uint64_t offset, std::uint64_t len);

std::vector<DirEntry> decode_dir(const mem::Buffer& raw);
mem::Buffer encode_dir(const std::vector<DirEntry>& entries);

}  // namespace layout

// Read-write view used by the guest OS that owns the image.
class SimFs {
 public:
  // Opens an existing filesystem (throws FsError if not formatted).
  explicit SimFs(DiskImagePtr image);

  // Formats a fresh filesystem on the image and returns a view of it.
  static SimFs format(DiskImagePtr image, std::uint32_t inode_capacity = 4096);

  // --- namespace operations (absolute paths, '/'-separated) ---
  std::uint32_t mkdir(std::string_view path);
  std::uint32_t create(std::string_view path);     // empty file; error if exists
  std::optional<std::uint32_t> lookup(std::string_view path) const;
  bool exists(std::string_view path) const { return lookup(path).has_value(); }
  void remove(std::string_view path);              // file only
  void rename(std::string_view from, std::string_view to);  // same directory
  std::vector<DirEntry> list(std::string_view dir_path) const;

  // --- file I/O ---
  void append(std::uint32_t inode_id, const mem::Buffer& data);
  mem::Buffer read(std::uint32_t inode_id, std::uint64_t offset, std::uint64_t len) const;
  std::uint64_t file_size(std::uint32_t inode_id) const;

  // Convenience: create (or truncate-by-error) + write in one call.
  std::uint32_t write_file(std::string_view path, const mem::Buffer& data);

  std::uint64_t generation() const { return sb_.generation; }
  const Superblock& superblock() const { return sb_; }
  const DiskImagePtr& image() const { return image_; }

 private:
  SimFs(DiskImagePtr image, Superblock sb) : image_(std::move(image)), sb_(sb) {}

  std::uint32_t alloc_inode(InodeType type);
  std::uint32_t alloc_blocks(std::uint32_t count);
  void bump_generation();
  // Splits "/a/b/c" into parent dir inode + leaf name, creating nothing.
  std::pair<std::uint32_t, std::string> resolve_parent(std::string_view path) const;
  void dir_add(std::uint32_t dir_inode, std::string name, std::uint32_t child);
  std::vector<DirEntry> dir_entries(std::uint32_t dir_inode) const;
  void rewrite_dir(std::uint32_t dir_inode, const std::vector<DirEntry>& entries);
  void append_raw(Inode& inode, const mem::Buffer& data);

  DiskImagePtr image_;
  Superblock sb_;
};

}  // namespace vread::fs
