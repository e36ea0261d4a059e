#include "fs/loop_mount.h"

#include "fault/fault.h"

namespace vread::fs {

void LoopMount::refresh() {
  // Injected remount failure (losetup/kpartx/mount hiccup): the snapshot
  // stays as-is — i.e. stale if the guest moved on — and callers see the
  // same NO_BLOCK misses a genuinely-stale mount produces.
  if (fault::registry().should_fire(fault::points::kMountRefreshFail)) return;
  snapshot_ = layout::read_superblock(*image_);
  files_.clear();
  snapshot_dir(snapshot_.root_inode, "");
  ++refresh_count_;
}

void LoopMount::snapshot_dir(std::uint32_t dir_inode, const std::string& prefix) {
  Inode dir = layout::read_inode(*image_, snapshot_, dir_inode);
  mem::Buffer raw = layout::read_file_range(*image_, dir, 0, dir.size);
  for (const DirEntry& e : layout::decode_dir(raw)) {
    Inode child = layout::read_inode(*image_, snapshot_, e.inode);
    std::string path = prefix + "/" + e.name;
    if (child.type == InodeType::kDir) {
      snapshot_dir(e.inode, path);
    } else if (child.type == InodeType::kFile) {
      files_.emplace(std::move(path), child);
    }
  }
}

}  // namespace vread::fs
