#include "hdfs/namenode.h"

#include <algorithm>

namespace vread::hdfs {

void NameNode::create_file(const std::string& path, std::uint64_t block_size) {
  if (files_.count(path) != 0) throw HdfsError("file exists: " + path);
  files_[path] = FileMeta{block_size, {}};
}

BlockInfo& NameNode::add_block(const std::string& path,
                               std::vector<std::string> datanodes) {
  auto it = files_.find(path);
  if (it == files_.end()) throw HdfsError("no such file: " + path);
  if (datanodes.empty()) throw HdfsError("add_block: empty placement");
  FileMeta& fm = it->second;
  if (!fm.blocks.empty() && !fm.blocks.back().complete) {
    throw HdfsError("previous block of " + path + " not finalized");
  }
  BlockInfo blk;
  blk.id = next_block_id_++;
  blk.name = sim::Name("blk_" + std::to_string(blk.id));
  blk.offset_in_file =
      fm.blocks.empty() ? 0 : fm.blocks.back().offset_in_file + fm.blocks.back().size;
  blk.locations.reserve(datanodes.size());
  for (const std::string& dn : datanodes) blk.locations.emplace_back(dn);
  fm.blocks.push_back(std::move(blk));
  return fm.blocks.back();
}

void NameNode::complete_block(const std::string& path, std::uint64_t block_id,
                              std::uint64_t size) {
  auto it = files_.find(path);
  if (it == files_.end()) throw HdfsError("no such file: " + path);
  for (BlockInfo& b : it->second.blocks) {
    if (b.id == block_id) {
      if (b.complete) throw HdfsError("block already finalized (write-once)");
      b.size = size;
      b.complete = true;
      for (const sim::Name dn : b.locations) {
        notify(BlockEvent{BlockEvent::Kind::kComplete, dn, b.name});
      }
      return;
    }
  }
  throw HdfsError("no such block in " + path);
}

std::vector<BlockInfo> NameNode::get_block_locations(const std::string& path,
                                                     std::uint64_t offset,
                                                     std::uint64_t len) const {
  ++const_cast<NameNode*>(this)->rpc_count_;
  // Saturated: offset + len may run past 2^64 for a read to EOF.
  const std::uint64_t end = len > UINT64_MAX - offset ? UINT64_MAX : offset + len;
  std::vector<BlockInfo> out;
  for (const BlockInfo& b : meta(path).blocks) {
    if (!b.complete) continue;
    const std::uint64_t b_end = b.offset_in_file + b.size;
    if (b.offset_in_file < end && b_end > offset) out.push_back(b);
  }
  return out;
}

const std::vector<BlockInfo>& NameNode::all_blocks(const std::string& path) const {
  ++const_cast<NameNode*>(this)->rpc_count_;
  return meta(path).blocks;
}

std::uint64_t NameNode::file_size(const std::string& path) const {
  std::uint64_t size = 0;
  for (const BlockInfo& b : meta(path).blocks) {
    if (b.complete) size += b.size;
  }
  return size;
}

std::uint64_t NameNode::block_size(const std::string& path) const {
  return meta(path).block_size;
}

std::vector<std::string> NameNode::list_files() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, fm] : files_) out.push_back(path);
  return out;
}

void NameNode::remove_file(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) throw HdfsError("no such file: " + path);
  for (const BlockInfo& b : it->second.blocks) {
    for (const sim::Name dn : b.locations) {
      notify(BlockEvent{BlockEvent::Kind::kDelete, dn, b.name});
    }
  }
  files_.erase(it);
}

}  // namespace vread::hdfs
