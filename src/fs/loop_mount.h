// Host-side read-only mount of a guest's virtual-disk image.
//
// Models `losetup` + `kpartx` + `mount -o ro` from the paper (§3.2): the
// hypervisor parses the SimFs inside the datanode VM's image and caches a
// *snapshot* of the namespace (dentry/inode cache). The guest keeps writing
// through its own SimFs view, so the snapshot goes stale: files created or
// appended after the last refresh() are invisible or short — exactly the
// coherence problem vRead solves with the namenode-triggered remount
// (vRead_update). HDFS's write-once blocks make the data blocks themselves
// safe to read without guest coordination.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "fault/fault.h"
#include "fs/disk_image.h"
#include "fs/simfs.h"

namespace vread::fs {

class LoopMount {
 public:
  // Mounts the image read-only, taking the initial snapshot.
  explicit LoopMount(DiskImagePtr image) : image_(std::move(image)) { refresh(); }

  // Re-reads the superblock and the whole namespace (the "remount-like"
  // dentry/inode refresh of §3.2/§4).
  void refresh();

  // True when the on-image generation has moved past the snapshot (i.e.
  // the guest changed the namespace since the last refresh()).
  bool stale() const {
    return layout::read_superblock(*image_).generation != snapshot_.generation;
  }

  // Snapshot lookup: returns the inode *as of the last refresh*. A file
  // appended since then reports its old size; a new file is absent. The
  // stale-dentry fault point models the window where a refresh is pending
  // and the dentry cache misses on an entry that is really there.
  std::optional<Inode> lookup(const std::string& path) const {
    if (fault::registry().should_fire(fault::points::kMountStaleLookup)) {
      return std::nullopt;
    }
    auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    return it->second;
  }

  // Reads current image bytes through a snapshot inode. Safe for HDFS's
  // write-once blocks; clamped to the snapshot size.
  mem::Buffer read(const Inode& snapshot_inode, std::uint64_t offset,
                   std::uint64_t len) const {
    return layout::read_file_range(*image_, snapshot_inode, offset, len);
  }

  std::uint64_t refresh_count() const { return refresh_count_; }
  std::size_t file_count() const { return files_.size(); }
  const DiskImagePtr& image() const { return image_; }

 private:
  void snapshot_dir(std::uint32_t dir_inode, const std::string& prefix);

  DiskImagePtr image_;
  Superblock snapshot_;
  std::unordered_map<std::string, Inode> files_;  // full path -> inode copy
  std::uint64_t refresh_count_ = 0;
};

}  // namespace vread::fs
