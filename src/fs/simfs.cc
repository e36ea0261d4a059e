#include "fs/simfs.h"

#include <algorithm>
#include <cstring>

namespace vread::fs {
namespace {

// Little-endian field codec over a byte scratch buffer.
void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}
void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}
std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}
void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

// Invokes fn(image_offset, length) for each contiguous on-image segment of
// the logical range [offset, offset+len) of the file.
template <typename Fn>
void for_each_segment(const Inode& inode, std::uint64_t offset, std::uint64_t len, Fn fn) {
  std::uint64_t extent_begin = 0;  // logical byte where current extent starts
  for (std::uint32_t i = 0; i < inode.extent_count && len > 0; ++i) {
    const Extent& e = inode.extents[i];
    const std::uint64_t extent_bytes =
        static_cast<std::uint64_t>(e.block_count) * kFsBlockSize;
    const std::uint64_t extent_end = extent_begin + extent_bytes;
    if (offset < extent_end) {
      const std::uint64_t within = offset - extent_begin;
      const std::uint64_t n = std::min(len, extent_bytes - within);
      fn(static_cast<std::uint64_t>(e.start_block) * kFsBlockSize + within, n);
      offset += n;
      len -= n;
    }
    extent_begin = extent_end;
  }
  if (len > 0) throw FsError("read/write past end of allocated extents");
}

std::vector<std::string> split_path(std::string_view path) {
  if (path.empty() || path[0] != '/') throw FsError("path must be absolute: " + std::string(path));
  std::vector<std::string> parts;
  std::size_t i = 1;
  while (i < path.size()) {
    std::size_t j = path.find('/', i);
    if (j == std::string_view::npos) j = path.size();
    if (j > i) parts.emplace_back(path.substr(i, j - i));
    i = j + 1;
  }
  return parts;
}

}  // namespace

namespace layout {

Superblock read_superblock(const DiskImage& image) {
  std::uint8_t raw[64];
  image.read(0, raw, sizeof raw);
  Superblock sb;
  sb.magic = get_u64(raw);
  if (sb.magic != kFsMagic) throw FsError("not a SimFs image (bad magic)");
  sb.block_size = get_u32(raw + 8);
  sb.inode_capacity = get_u32(raw + 12);
  sb.inode_table_start = get_u32(raw + 16);
  sb.inode_table_blocks = get_u32(raw + 20);
  sb.data_start = get_u32(raw + 24);
  sb.total_blocks = get_u32(raw + 28);
  sb.next_free_block = get_u32(raw + 32);
  sb.next_inode = get_u32(raw + 36);
  sb.root_inode = get_u32(raw + 40);
  sb.generation = get_u64(raw + 44);
  return sb;
}

void write_superblock(DiskImage& image, const Superblock& sb) {
  std::uint8_t raw[64] = {};
  put_u64(raw, sb.magic);
  put_u32(raw + 8, sb.block_size);
  put_u32(raw + 12, sb.inode_capacity);
  put_u32(raw + 16, sb.inode_table_start);
  put_u32(raw + 20, sb.inode_table_blocks);
  put_u32(raw + 24, sb.data_start);
  put_u32(raw + 28, sb.total_blocks);
  put_u32(raw + 32, sb.next_free_block);
  put_u32(raw + 36, sb.next_inode);
  put_u32(raw + 40, sb.root_inode);
  put_u64(raw + 44, sb.generation);
  image.write(0, raw, sizeof raw);
}

Inode read_inode(const DiskImage& image, const Superblock& sb, std::uint32_t id) {
  if (id >= sb.inode_capacity) throw FsError("inode id out of range");
  std::uint8_t raw[kInodeSize];
  image.read(static_cast<std::uint64_t>(sb.inode_table_start) * kFsBlockSize +
                 static_cast<std::uint64_t>(id) * kInodeSize,
             raw, sizeof raw);
  Inode ino;
  ino.id = get_u32(raw);
  ino.type = static_cast<InodeType>(raw[4]);
  ino.size = get_u64(raw + 8);
  ino.extent_count = get_u32(raw + 16);
  for (std::uint32_t i = 0; i < kMaxExtents; ++i) {
    ino.extents[i].start_block = get_u32(raw + 20 + i * 8);
    ino.extents[i].block_count = get_u32(raw + 24 + i * 8);
  }
  return ino;
}

void write_inode(DiskImage& image, const Superblock& sb, const Inode& inode) {
  std::uint8_t raw[kInodeSize] = {};
  put_u32(raw, inode.id);
  raw[4] = static_cast<std::uint8_t>(inode.type);
  put_u64(raw + 8, inode.size);
  put_u32(raw + 16, inode.extent_count);
  for (std::uint32_t i = 0; i < kMaxExtents; ++i) {
    put_u32(raw + 20 + i * 8, inode.extents[i].start_block);
    put_u32(raw + 24 + i * 8, inode.extents[i].block_count);
  }
  image.write(static_cast<std::uint64_t>(sb.inode_table_start) * kFsBlockSize +
                  static_cast<std::uint64_t>(inode.id) * kInodeSize,
              raw, sizeof raw);
}

mem::Buffer read_file_range(const DiskImage& image, const Inode& inode,
                            std::uint64_t offset, std::uint64_t len) {
  if (offset > inode.size) throw FsError("read offset past end of file");
  len = std::min(len, inode.size - offset);
  std::size_t segments = 0;
  std::uint64_t first_img_off = 0;
  for_each_segment(inode, offset, len, [&](std::uint64_t img_off, std::uint64_t) {
    if (segments++ == 0) first_img_off = img_off;
  });
  // One extent: the image hands out a view of its run without copying.
  if (segments == 1) return image.read(first_img_off, len);
  return mem::Buffer::filled(len, [&](std::uint8_t* out) {
    for_each_segment(inode, offset, len, [&](std::uint64_t img_off, std::uint64_t n) {
      image.read(img_off, out, n);
      out += n;
    });
  });
}

std::vector<DirEntry> decode_dir(const mem::Buffer& raw) {
  std::vector<DirEntry> entries;
  if (raw.size() < 4) return entries;
  std::uint32_t count = get_u32(raw.data());
  std::size_t pos = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos + 6 > raw.size()) throw FsError("corrupt directory");
    std::uint32_t inode = get_u32(raw.data() + pos);
    std::uint16_t name_len = get_u16(raw.data() + pos + 4);
    pos += 6;
    if (pos + name_len > raw.size()) throw FsError("corrupt directory");
    entries.push_back(DirEntry{
        inode, std::string(reinterpret_cast<const char*>(raw.data() + pos), name_len)});
    pos += name_len;
  }
  return entries;
}

mem::Buffer encode_dir(const std::vector<DirEntry>& entries) {
  std::size_t bytes = 4;
  for (const DirEntry& e : entries) bytes += 6 + e.name.size();
  mem::Buffer raw(bytes);
  put_u32(raw.data(), static_cast<std::uint32_t>(entries.size()));
  std::size_t pos = 4;
  for (const DirEntry& e : entries) {
    put_u32(raw.data() + pos, e.inode);
    put_u16(raw.data() + pos + 4, static_cast<std::uint16_t>(e.name.size()));
    pos += 6;
    std::memcpy(raw.data() + pos, e.name.data(), e.name.size());
    pos += e.name.size();
  }
  return raw;
}

}  // namespace layout

SimFs::SimFs(DiskImagePtr image) : image_(std::move(image)) {
  sb_ = layout::read_superblock(*image_);
}

SimFs SimFs::format(DiskImagePtr image, std::uint32_t inode_capacity) {
  Superblock sb;
  sb.inode_capacity = inode_capacity;
  sb.inode_table_start = 1;
  sb.inode_table_blocks =
      (inode_capacity * kInodeSize + kFsBlockSize - 1) / kFsBlockSize;
  sb.data_start = sb.inode_table_start + sb.inode_table_blocks;
  sb.total_blocks = static_cast<std::uint32_t>(image->size() / kFsBlockSize);
  if (sb.data_start >= sb.total_blocks) throw FsError("image too small for SimFs");
  sb.next_free_block = sb.data_start;
  sb.next_inode = 0;
  sb.generation = 1;
  SimFs fs(std::move(image), sb);
  // Root directory = inode 0, empty.
  std::uint32_t root = fs.alloc_inode(InodeType::kDir);
  fs.sb_.root_inode = root;
  fs.rewrite_dir(root, {});
  layout::write_superblock(*fs.image_, fs.sb_);
  return fs;
}

std::uint32_t SimFs::alloc_inode(InodeType type) {
  if (sb_.next_inode >= sb_.inode_capacity) throw FsError("out of inodes");
  Inode ino;
  ino.id = sb_.next_inode++;
  ino.type = type;
  layout::write_inode(*image_, sb_, ino);
  layout::write_superblock(*image_, sb_);
  return ino.id;
}

std::uint32_t SimFs::alloc_blocks(std::uint32_t count) {
  if (sb_.next_free_block + count > sb_.total_blocks) throw FsError("image full");
  std::uint32_t start = sb_.next_free_block;
  sb_.next_free_block += count;
  layout::write_superblock(*image_, sb_);
  return start;
}

void SimFs::bump_generation() {
  ++sb_.generation;
  layout::write_superblock(*image_, sb_);
}

std::pair<std::uint32_t, std::string> SimFs::resolve_parent(std::string_view path) const {
  std::vector<std::string> parts = split_path(path);
  if (parts.empty()) throw FsError("cannot operate on root");
  std::uint32_t dir = sb_.root_inode;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    bool found = false;
    for (const DirEntry& e : dir_entries(dir)) {
      if (e.name == parts[i]) {
        Inode child = layout::read_inode(*image_, sb_, e.inode);
        if (child.type != InodeType::kDir) throw FsError("not a directory: " + parts[i]);
        dir = e.inode;
        found = true;
        break;
      }
    }
    if (!found) throw FsError("no such directory: " + parts[i]);
  }
  return {dir, parts.back()};
}

std::uint32_t SimFs::mkdir(std::string_view path) {
  auto [parent, name] = resolve_parent(path);
  for (const DirEntry& e : dir_entries(parent)) {
    if (e.name == name) throw FsError("already exists: " + std::string(path));
  }
  std::uint32_t id = alloc_inode(InodeType::kDir);
  rewrite_dir(id, {});
  dir_add(parent, name, id);
  bump_generation();
  return id;
}

std::uint32_t SimFs::create(std::string_view path) {
  auto [parent, name] = resolve_parent(path);
  for (const DirEntry& e : dir_entries(parent)) {
    if (e.name == name) throw FsError("already exists: " + std::string(path));
  }
  std::uint32_t id = alloc_inode(InodeType::kFile);
  dir_add(parent, name, id);
  bump_generation();
  return id;
}

std::optional<std::uint32_t> SimFs::lookup(std::string_view path) const {
  std::vector<std::string> parts = split_path(path);
  std::uint32_t cur = sb_.root_inode;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    Inode node = layout::read_inode(*image_, sb_, cur);
    if (node.type != InodeType::kDir) return std::nullopt;
    bool found = false;
    for (const DirEntry& e : dir_entries(cur)) {
      if (e.name == parts[i]) {
        cur = e.inode;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return cur;
}

void SimFs::remove(std::string_view path) {
  auto [parent, name] = resolve_parent(path);
  auto entries = dir_entries(parent);
  auto it = std::find_if(entries.begin(), entries.end(),
                         [&](const DirEntry& e) { return e.name == name; });
  if (it == entries.end()) throw FsError("no such file: " + std::string(path));
  Inode ino = layout::read_inode(*image_, sb_, it->inode);
  if (ino.type != InodeType::kFile) throw FsError("not a file: " + std::string(path));
  ino.type = InodeType::kFree;  // blocks are leaked: bump allocator never reuses
  layout::write_inode(*image_, sb_, ino);
  entries.erase(it);
  rewrite_dir(parent, entries);
  bump_generation();
}

void SimFs::rename(std::string_view from, std::string_view to) {
  auto [parent_from, name_from] = resolve_parent(from);
  auto [parent_to, name_to] = resolve_parent(to);
  if (parent_from != parent_to) throw FsError("rename across directories unsupported");
  auto entries = dir_entries(parent_from);
  auto it = std::find_if(entries.begin(), entries.end(),
                         [&](const DirEntry& e) { return e.name == name_from; });
  if (it == entries.end()) throw FsError("no such file: " + std::string(from));
  it->name = name_to;
  rewrite_dir(parent_from, entries);
  bump_generation();
}

std::vector<DirEntry> SimFs::list(std::string_view dir_path) const {
  std::optional<std::uint32_t> id = lookup(dir_path);
  if (!id) throw FsError("no such directory: " + std::string(dir_path));
  return dir_entries(*id);
}

void SimFs::append(std::uint32_t inode_id, const mem::Buffer& data) {
  Inode ino = layout::read_inode(*image_, sb_, inode_id);
  if (ino.type != InodeType::kFile) throw FsError("append: not a file");
  append_raw(ino, data);
  layout::write_inode(*image_, sb_, ino);
  bump_generation();
}

void SimFs::append_raw(Inode& ino, const mem::Buffer& data) {
  std::uint64_t capacity = 0;
  for (std::uint32_t i = 0; i < ino.extent_count; ++i) {
    capacity += static_cast<std::uint64_t>(ino.extents[i].block_count) * kFsBlockSize;
  }
  const std::uint64_t needed_bytes = ino.size + data.size();
  if (needed_bytes > capacity) {
    const std::uint32_t extra_blocks = static_cast<std::uint32_t>(
        (needed_bytes - capacity + kFsBlockSize - 1) / kFsBlockSize);
    std::uint32_t start = alloc_blocks(extra_blocks);
    if (ino.extent_count > 0 &&
        ino.extents[ino.extent_count - 1].start_block +
                ino.extents[ino.extent_count - 1].block_count ==
            start) {
      ino.extents[ino.extent_count - 1].block_count += extra_blocks;  // contiguous
    } else {
      if (ino.extent_count == kMaxExtents) throw FsError("file too fragmented");
      ino.extents[ino.extent_count++] = Extent{start, extra_blocks};
    }
  }
  std::uint64_t written = 0;
  for_each_segment(ino, ino.size, data.size(), [&](std::uint64_t img_off, std::uint64_t n) {
    image_->write(img_off, data.slice(written, n));
    written += n;
  });
  ino.size += data.size();
}

mem::Buffer SimFs::read(std::uint32_t inode_id, std::uint64_t offset,
                        std::uint64_t len) const {
  Inode ino = layout::read_inode(*image_, sb_, inode_id);
  if (ino.type != InodeType::kFile) throw FsError("read: not a file");
  return layout::read_file_range(*image_, ino, offset, len);
}

std::uint64_t SimFs::file_size(std::uint32_t inode_id) const {
  return layout::read_inode(*image_, sb_, inode_id).size;
}

std::uint32_t SimFs::write_file(std::string_view path, const mem::Buffer& data) {
  std::uint32_t id = create(path);
  if (!data.empty()) append(id, data);
  return id;
}

std::vector<DirEntry> SimFs::dir_entries(std::uint32_t dir_inode) const {
  Inode ino = layout::read_inode(*image_, sb_, dir_inode);
  if (ino.type != InodeType::kDir) throw FsError("not a directory inode");
  return layout::decode_dir(layout::read_file_range(*image_, ino, 0, ino.size));
}

void SimFs::rewrite_dir(std::uint32_t dir_inode, const std::vector<DirEntry>& entries) {
  Inode ino = layout::read_inode(*image_, sb_, dir_inode);
  mem::Buffer raw = layout::encode_dir(entries);
  // Allocate fresh extents for the new content (old blocks are leaked; the
  // bump allocator never reuses, keeping stale LoopMount snapshots readable).
  const std::uint32_t blocks =
      static_cast<std::uint32_t>((raw.size() + kFsBlockSize - 1) / kFsBlockSize);
  ino.extent_count = 0;
  ino.size = 0;
  if (blocks > 0) {
    std::uint32_t start = alloc_blocks(blocks);
    ino.extents[ino.extent_count++] = Extent{start, blocks};
    std::uint64_t written = 0;
    for_each_segment(ino, 0, raw.size(), [&](std::uint64_t img_off, std::uint64_t n) {
      image_->write(img_off, raw.slice(written, n));
      written += n;
    });
  }
  ino.size = raw.size();
  layout::write_inode(*image_, sb_, ino);
}

void SimFs::dir_add(std::uint32_t dir_inode, std::string name, std::uint32_t child) {
  auto entries = dir_entries(dir_inode);
  entries.push_back(DirEntry{child, std::move(name)});
  rewrite_dir(dir_inode, entries);
}

void SimFs::dir_remove(std::uint32_t dir_inode, std::string_view name) {
  auto entries = dir_entries(dir_inode);
  std::erase_if(entries, [&](const DirEntry& e) { return e.name == name; });
  rewrite_dir(dir_inode, entries);
}

}  // namespace vread::fs
