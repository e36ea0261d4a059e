// HDFS namenode: file -> block mappings, block -> datanode locations, and
// the block-completion notification channel that vRead hooks to trigger
// its mount-point refresh (paper §3.2: "The synchronization is achieved
// through the Hadoop namenode").
//
// The namenode runs inside a VM (the paper co-locates it with the client
// VM); every RPC charges CPU on both the caller's and the namenode's vCPU.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/cost_model.h"
#include "sim/name.h"
#include "sim/task.h"
#include "virt/vm.h"

namespace vread::hdfs {

class HdfsError : public std::runtime_error {
 public:
  explicit HdfsError(const std::string& what) : std::runtime_error(what) {}
};

constexpr std::uint64_t kDefaultBlockSize = 64ULL * 1024 * 1024;  // HDFS default

struct BlockInfo {
  std::uint64_t id = 0;
  sim::Name name;                       // "blk_<id>", the on-disk file name
  std::uint64_t size = 0;               // bytes written so far
  std::uint64_t offset_in_file = 0;     // logical start within the HDFS file
  bool complete = false;
  std::vector<sim::Name> locations;     // datanode ids holding a replica
};

class NameNode {
 public:
  // A datanode-side mutation event delivered to registered listeners
  // (vRead daemons use these to refresh the affected loop mount).
  struct BlockEvent {
    enum class Kind { kComplete, kDelete, kRename } kind;
    std::string datanode_id;
    std::string block_name;
  };
  using Listener = std::function<void(const BlockEvent&)>;

  NameNode(virt::Vm& vm, const hw::CostModel& costs) : vm_(vm), costs_(costs) {}
  NameNode(const NameNode&) = delete;
  NameNode& operator=(const NameNode&) = delete;

  virt::Vm& vm() { return vm_; }

  // RPC cost: caller-side + namenode-side processing (call before using
  // any metadata operation from simulated code).
  sim::Task rpc_from(virt::Vm& caller) {
    co_await caller.run_vcpu(costs_.namenode_rpc, hw::CycleCategory::kNamenode);
    if (&caller != &vm_) {
      co_await vm_.run_vcpu(costs_.namenode_rpc, hw::CycleCategory::kNamenode);
    }
  }

  // --- metadata operations (pure; pair with rpc_from for timing) ---
  void create_file(const std::string& path, std::uint64_t block_size = kDefaultBlockSize);
  bool exists(const std::string& path) const { return files_.count(path) != 0; }

  // Allocates the next block of `path` on the given datanodes (pipeline
  // order). Returns the new block's info. The block's name and its
  // locations are interned here (sim::Name), once per block.
  BlockInfo& add_block(const std::string& path, std::vector<std::string> datanodes);

  // Marks a block finalized with its final size and fires listeners.
  void complete_block(const std::string& path, std::uint64_t block_id, std::uint64_t size);

  // Blocks overlapping [offset, offset+len); a range running past the
  // end of the address space ("read to EOF") ends at the last block.
  std::vector<BlockInfo> get_block_locations(const std::string& path, std::uint64_t offset,
                                             std::uint64_t len) const;
  const std::vector<BlockInfo>& all_blocks(const std::string& path) const;
  std::uint64_t file_size(const std::string& path) const;
  std::uint64_t block_size(const std::string& path) const;
  std::vector<std::string> list_files() const;

  void remove_file(const std::string& path);

  void register_listener(Listener l) { listeners_.push_back(std::move(l)); }

  // Datanode membership (heartbeat registration); used by the default
  // block-placement policy. The optional rack id (docs/TOPOLOGY.md) feeds
  // rack-aware placement: once any datanode registers a rack, the default
  // placement follows the HDFS rule (2nd replica off-rack, 3rd replica in
  // the 2nd's rack).
  void register_datanode(const std::string& dn_id) {
    for (const std::string& d : datanodes_) {
      if (d == dn_id) return;
    }
    datanodes_.push_back(dn_id);
  }
  void register_datanode(const std::string& dn_id, std::uint32_t rack) {
    register_datanode(dn_id);
    racks_[dn_id] = rack;
  }
  const std::vector<std::string>& datanodes() const { return datanodes_; }
  bool rack_aware() const { return !racks_.empty(); }
  std::uint32_t rack_of(const std::string& dn_id) const {
    auto it = racks_.find(dn_id);
    return it == racks_.end() ? 0 : it->second;
  }

  std::uint64_t rpc_count() const { return rpc_count_; }

 private:
  struct FileMeta {
    std::uint64_t block_size = kDefaultBlockSize;
    std::vector<BlockInfo> blocks;
  };

  const FileMeta& meta(const std::string& path) const {
    auto it = files_.find(path);
    if (it == files_.end()) throw HdfsError("no such file: " + path);
    return it->second;
  }

  void notify(const BlockEvent& ev) {
    for (const Listener& l : listeners_) l(ev);
  }

  virt::Vm& vm_;
  const hw::CostModel& costs_;
  std::map<std::string, FileMeta> files_;
  std::vector<std::string> datanodes_;
  std::map<std::string, std::uint32_t> racks_;  // dn_id -> rack (when known)
  std::vector<Listener> listeners_;
  std::uint64_t next_block_id_ = 1000;
  std::uint64_t rpc_count_ = 0;
};

}  // namespace vread::hdfs
