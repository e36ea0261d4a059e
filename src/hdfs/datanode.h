// HDFS datanode: stores block files under /current on its VM's virtual
// disk and serves them over the virtual network.
//
// The read path mirrors Hadoop 1.x: one connection per block stream, the
// datanode pushing the requested range in packets using the sendfile-style
// transferTo path (no app-buffer copies on the datanode), checksum/framing
// work charged per byte. The write path implements the replication
// pipeline: the head datanode appends locally while forwarding the stream
// to the next replica, acks flow back when everything is durable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hdfs/namenode.h"
#include "mem/buffer.h"
#include "sim/task.h"
#include "virt/vm.h"
#include "virt/vnet.h"

namespace vread::hdfs {

class DataNode {
 public:
  static constexpr std::uint16_t kPort = 50010;
  // Packet size for streaming reads/writes (HDFS packets batched to the
  // cost model's TSO segment scale).
  static constexpr std::uint64_t kPacketBytes = 256 * 1024;

  DataNode(virt::Vm& vm, NameNode& nn, virt::VirtualNetwork& net, std::string id);
  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  // Creates /current and begins accepting connections.
  void start();

  const std::string& id() const { return id_; }
  virt::Vm& vm() { return vm_; }

  static std::string block_path(const std::string& block_name) {
    return "/current/" + block_name;
  }

  // Instantly materializes a finalized block replica on this datanode's
  // disk with NO simulated cost, for pre-populating benchmark datasets
  // (the paper's data was loaded before the measured window too). Does not
  // touch caches and does not register with the namenode.
  void preload_block(const std::string& block_name, const mem::Buffer& data);

  // Drops this datanode VM's guest cache (cold-read experiments).
  void drop_caches() { vm_.drop_caches(); }

  std::uint64_t blocks_served() const { return blocks_served_; }
  std::uint64_t bytes_served() const { return bytes_served_; }

 private:
  sim::Task accept_loop();
  sim::Task handle_conn(virt::TcpSocket conn);
  sim::Task handle_read(virt::TcpSocket conn, const std::string& block_name,
                        std::uint64_t offset, std::uint64_t len, trace::Ctx ctx);
  sim::Task handle_write(virt::TcpSocket conn, const std::string& block_name,
                         std::uint64_t total_len,
                         std::vector<std::string> downstream);

  virt::Vm& vm_;
  NameNode& nn_;
  virt::VirtualNetwork& net_;
  std::string id_;
  std::uint64_t blocks_served_ = 0;
  std::uint64_t bytes_served_ = 0;
};

// Frame helpers shared with the client: u16 length prefix + payload. A
// payload over 65,535 bytes throws std::length_error before anything is
// sent.
sim::Task send_frame(virt::TcpSocket conn, mem::Buffer payload, hw::CycleCategory cat,
                     trace::Ctx ctx = {});
sim::Task recv_frame(virt::TcpSocket conn, mem::Buffer& out, hw::CycleCategory cat,
                     trace::Ctx ctx = {});

}  // namespace vread::hdfs
