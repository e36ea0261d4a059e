// QFS-style distributed file system (paper §3: "this framework is able to
// be generalized to other similar distributed file systems such as QFS and
// GFS").
//
// A deliberately different metadata model from HDFS: a metaserver hands
// out numbered 64 MB *chunks* (opaque ids, not block names), each chunk
// lives on exactly one chunkserver (QFS durability comes from striping /
// Reed-Solomon, out of scope here), clients cache per-file chunk layouts,
// and the wire protocol addresses chunks by id. Chunkservers store chunk
// files under "/chunks" — a different on-disk layout than HDFS datanodes.
//
// The point of the module: the SAME vRead daemons and libvread serve this
// filesystem unmodified. QfsClient plugs into the hdfs::BlockReader seam
// (chunk file name + chunkserver id), chunkserver images register with the
// daemon under dir="/chunks", and the write path fires vRead_update per
// completed chunk — nothing in core/ changes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hdfs/block_reader.h"
#include "hw/cost_model.h"
#include "mem/buffer.h"
#include "virt/vm.h"
#include "virt/vnet.h"

namespace vread::qfs {

class QfsError : public std::runtime_error {
 public:
  explicit QfsError(const std::string& what) : std::runtime_error(what) {}
};

struct ChunkInfo {
  std::uint64_t id = 0;
  std::uint64_t size = 0;
  std::uint64_t offset_in_file = 0;
  sim::Name server;  // chunkserver holding this chunk
  bool complete = false;
  // The on-disk chunk file name ("/chunks/<name>" on the chunkserver),
  // interned when the chunk is allocated.
  sim::Name file;

  sim::Name name() const { return file; }
};

// Metadata service (QFS metaserver / GFS master): file -> chunk layout.
class MetaServer {
 public:
  MetaServer(virt::Vm& vm, const hw::CostModel& costs) : vm_(vm), costs_(costs) {}
  MetaServer(const MetaServer&) = delete;
  MetaServer& operator=(const MetaServer&) = delete;

  virt::Vm& vm() { return vm_; }

  // Per-RPC cost on caller and metaserver vCPUs.
  sim::Task rpc_from(virt::Vm& caller) {
    co_await caller.run_vcpu(costs_.namenode_rpc, hw::CycleCategory::kNamenode);
    if (&caller != &vm_) {
      co_await vm_.run_vcpu(costs_.namenode_rpc, hw::CycleCategory::kNamenode);
    }
  }

  void register_chunkserver(const std::string& id) {
    for (const std::string& s : servers_) {
      if (s == id) return;
    }
    servers_.push_back(id);
  }
  const std::vector<std::string>& chunkservers() const { return servers_; }

  void create_file(const std::string& path, std::uint64_t chunk_size);
  ChunkInfo& allocate_chunk(const std::string& path, const std::string& server);
  void complete_chunk(const std::string& path, std::uint64_t chunk_id,
                      std::uint64_t size);
  const std::vector<ChunkInfo>& layout(const std::string& path) const;
  std::uint64_t file_size(const std::string& path) const;
  std::uint64_t chunk_size(const std::string& path) const;
  bool exists(const std::string& path) const { return files_.count(path) != 0; }

 private:
  struct FileMeta {
    std::uint64_t chunk_size;
    std::vector<ChunkInfo> chunks;
  };
  const FileMeta& meta(const std::string& path) const;

  virt::Vm& vm_;
  const hw::CostModel& costs_;
  std::map<std::string, FileMeta> files_;
  std::vector<std::string> servers_;
  std::uint64_t next_chunk_ = 5000;
};

// Chunk storage + service, running in a VM.
class ChunkServer {
 public:
  static constexpr std::uint16_t kPort = 20000;
  static constexpr std::uint64_t kPacketBytes = 256 * 1024;
  static constexpr const char* kChunkDir = "/chunks";

  ChunkServer(virt::Vm& vm, MetaServer& meta, virt::VirtualNetwork& net, std::string id);

  // Creates /chunks, registers with the metaserver, starts serving.
  void start();

  const std::string& id() const { return id_; }
  virt::Vm& vm() { return vm_; }
  std::uint64_t bytes_served() const { return bytes_served_; }

  static std::string chunk_path(const ChunkInfo& c) {
    return std::string(kChunkDir) + "/" + c.name().str();
  }

 private:
  sim::Task accept_loop();
  sim::Task handle_conn(virt::TcpSocket conn);

  virt::Vm& vm_;
  MetaServer& meta_;
  virt::VirtualNetwork& net_;
  std::string id_;
  std::uint64_t bytes_served_ = 0;
};

// Client: chunk-layout caching reads + single-replica chunk writes. Reads
// go through the vRead shortcut when a BlockReader is installed.
class QfsClient {
 public:
  QfsClient(virt::Vm& vm, MetaServer& meta, virt::VirtualNetwork& net)
      : vm_(vm), meta_(meta), net_(net) {}
  QfsClient(const QfsClient&) = delete;
  QfsClient& operator=(const QfsClient&) = delete;

  virt::Vm& vm() { return vm_; }

  // Installs the vRead shortcut (the same seam DfsClient uses).
  void set_block_reader(hdfs::BlockReader* reader) { reader_ = reader; }

  // Writes `data`, chunks round-robin over the registered chunkservers.
  sim::Task write_file(const std::string& path, const mem::Buffer& data,
                       std::uint64_t chunk_size = 64ULL << 20);

  // Positional read; `out` is clamped at EOF.
  sim::Task pread(const std::string& path, std::uint64_t offset, std::uint64_t len,
                  mem::Buffer& out);

  // Whole-file read.
  sim::Task read_file(const std::string& path, mem::Buffer& out);

 private:
  // Reads [off, off+len) of one chunk: vRead descriptor first, TCP second.
  sim::Task read_chunk_range(const ChunkInfo& chunk, std::uint64_t off,
                             std::uint64_t len, mem::Buffer& out);
  sim::Task fetch_layout(const std::string& path, std::vector<ChunkInfo>& out);

  virt::Vm& vm_;
  MetaServer& meta_;
  virt::VirtualNetwork& net_;
  hdfs::BlockReader* reader_ = nullptr;
  std::unordered_map<std::string, std::vector<ChunkInfo>> layout_cache_;
  // Chunk name -> vfd; pointer-hashed, looked up and never iterated.
  std::unordered_map<sim::Name, std::uint64_t, sim::Name::Hash> vfd_hash_;
};

}  // namespace vread::qfs
