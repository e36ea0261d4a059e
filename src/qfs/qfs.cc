#include "qfs/qfs.h"

#include "hdfs/datanode.h"  // send_frame / recv_frame helpers
#include "hdfs/wire.h"

namespace vread::qfs {

using hdfs::recv_frame;
using hdfs::send_frame;
using hw::CycleCategory;
using virt::TcpSocket;

namespace {
// QFS wire opcodes (distinct protocol from HDFS's DataTransferProtocol).
enum class QfsOp : std::uint8_t { kReadChunk = 11, kWriteChunk = 12 };
}  // namespace

// --- MetaServer ---

void MetaServer::create_file(const std::string& path, std::uint64_t chunk_size) {
  if (files_.count(path) != 0) throw QfsError("file exists: " + path);
  files_[path] = FileMeta{chunk_size, {}};
}

ChunkInfo& MetaServer::allocate_chunk(const std::string& path,
                                      const std::string& server) {
  auto it = files_.find(path);
  if (it == files_.end()) throw QfsError("no such file: " + path);
  ChunkInfo c;
  c.id = next_chunk_++;
  c.server = sim::Name(server);
  c.file = sim::Name("chunk_" + std::to_string(c.id));
  c.offset_in_file = it->second.chunks.empty()
                         ? 0
                         : it->second.chunks.back().offset_in_file +
                               it->second.chunks.back().size;
  it->second.chunks.push_back(c);
  return it->second.chunks.back();
}

void MetaServer::complete_chunk(const std::string& path, std::uint64_t chunk_id,
                                std::uint64_t size) {
  auto it = files_.find(path);
  if (it == files_.end()) throw QfsError("no such file: " + path);
  for (ChunkInfo& c : it->second.chunks) {
    if (c.id == chunk_id) {
      c.size = size;
      c.complete = true;
      return;
    }
  }
  throw QfsError("no such chunk in " + path);
}

const MetaServer::FileMeta& MetaServer::meta(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) throw QfsError("no such file: " + path);
  return it->second;
}

const std::vector<ChunkInfo>& MetaServer::layout(const std::string& path) const {
  return meta(path).chunks;
}

std::uint64_t MetaServer::file_size(const std::string& path) const {
  std::uint64_t size = 0;
  for (const ChunkInfo& c : meta(path).chunks) {
    if (c.complete) size += c.size;
  }
  return size;
}

std::uint64_t MetaServer::chunk_size(const std::string& path) const {
  return meta(path).chunk_size;
}

// --- ChunkServer ---

ChunkServer::ChunkServer(virt::Vm& vm, MetaServer& meta, virt::VirtualNetwork& net,
                         std::string id)
    : vm_(vm), meta_(meta), net_(net), id_(std::move(id)) {}

void ChunkServer::start() {
  if (!vm_.fs().exists(kChunkDir)) vm_.fs().mkdir(kChunkDir);
  meta_.register_chunkserver(id_);
  net_.listen(vm_, kPort);
  vm_.host().sim().spawn(accept_loop());
}

sim::Task ChunkServer::accept_loop() {
  for (;;) {
    TcpSocket conn;
    co_await net_.accept(vm_, kPort, conn);
    vm_.host().sim().spawn(handle_conn(conn));
  }
}

sim::Task ChunkServer::handle_conn(TcpSocket conn) {
  const hw::CostModel& cm = vm_.host().costs();
  for (;;) {
    mem::Buffer header;
    try {
      co_await recv_frame(conn, header, CycleCategory::kDatanodeApp);
    } catch (const virt::NetError&) {
      co_return;
    }
    hdfs::wire::Reader r(header);
    const auto op = static_cast<QfsOp>(r.u8());
    const std::uint64_t chunk_id = r.u64();
    const std::string path =
        std::string(kChunkDir) + "/chunk_" + std::to_string(chunk_id);

    if (op == QfsOp::kReadChunk) {
      const std::uint64_t offset = r.u64();
      const std::uint64_t len = r.u64();
      auto ino = vm_.fs().lookup(path);
      hdfs::wire::Writer w;
      if (!ino) {
        w.i64(-1);
        co_await send_frame(conn, w.take(), CycleCategory::kDatanodeApp);
        continue;
      }
      const std::uint64_t file_size = vm_.fs().file_size(*ino);
      const std::uint64_t end = std::min(file_size, offset + len);
      const std::uint64_t actual = end > offset ? end - offset : 0;
      co_await vm_.run_vcpu(cm.dn_request_overhead, CycleCategory::kDatanodeApp);
      w.i64(static_cast<std::int64_t>(actual));
      co_await send_frame(conn, w.take(), CycleCategory::kDatanodeApp);
      std::uint64_t pos = offset;
      while (pos < end) {
        const std::uint64_t n = std::min(kPacketBytes, end - pos);
        mem::Buffer packet;
        co_await vm_.fs_read(*ino, pos, n, packet, CycleCategory::kDatanodeApp,
                             /*copy_to_app=*/false);
        co_await vm_.run_vcpu(cm.per_byte(n, cm.dn_app_cycles_per_byte),
                              CycleCategory::kDatanodeApp);
        co_await conn.send(std::move(packet), CycleCategory::kDatanodeApp,
                           /*from_app_buffer=*/false);
        pos += n;
      }
      bytes_served_ += actual;
    } else if (op == QfsOp::kWriteChunk) {
      const std::uint64_t total = r.u64();
      co_await vm_.run_vcpu(cm.dn_request_overhead, CycleCategory::kDatanodeApp);
      std::uint32_t ino = vm_.fs().create(path);
      std::uint64_t received = 0;
      while (received < total) {
        const std::uint64_t n = std::min(kPacketBytes, total - received);
        mem::Buffer packet;
        co_await conn.recv_exact(n, packet, CycleCategory::kDatanodeApp);
        co_await vm_.run_vcpu(cm.per_byte(n, cm.dn_app_cycles_per_byte),
                              CycleCategory::kDatanodeApp);
        co_await vm_.fs_append(ino, packet, CycleCategory::kDatanodeApp);
        received += n;
      }
      hdfs::wire::Writer w;
      w.i64(0);
      co_await send_frame(conn, w.take(), CycleCategory::kDatanodeApp);
    }
  }
}

// --- QfsClient ---

sim::Task QfsClient::write_file(const std::string& path, const mem::Buffer& data,
                                std::uint64_t chunk_size) {
  const hw::CostModel& cm = vm_.host().costs();
  co_await meta_.rpc_from(vm_);
  meta_.create_file(path, chunk_size);
  const std::vector<std::string>& servers = meta_.chunkservers();
  if (servers.empty()) throw QfsError("no chunkservers registered");

  std::uint64_t offset = 0;
  std::uint64_t index = 0;
  while (offset < data.size()) {
    const std::uint64_t n = std::min(chunk_size, data.size() - offset);
    const std::string& server = servers[index % servers.size()];
    co_await meta_.rpc_from(vm_);
    ChunkInfo& chunk = meta_.allocate_chunk(path, server);
    const std::uint64_t chunk_id = chunk.id;
    const sim::Name chunk_server = chunk.server;

    TcpSocket conn;
    co_await net_.connect(vm_, server, ChunkServer::kPort, conn);
    hdfs::wire::Writer w;
    w.u8(static_cast<std::uint8_t>(12 /*kWriteChunk*/));
    w.u64(chunk_id);
    w.u64(n);
    co_await send_frame(conn, w.take(), CycleCategory::kClientApp);
    std::uint64_t sent = 0;
    while (sent < n) {
      const std::uint64_t piece = std::min(ChunkServer::kPacketBytes, n - sent);
      co_await vm_.run_vcpu(cm.per_byte(piece, cm.client_hdfs_cycles_per_byte),
                            CycleCategory::kClientApp);
      co_await conn.send(data.slice(offset + sent, piece), CycleCategory::kClientApp);
      sent += piece;
    }
    mem::Buffer ack;
    co_await recv_frame(conn, ack, CycleCategory::kClientApp);
    conn.close();

    co_await meta_.rpc_from(vm_);
    meta_.complete_chunk(path, chunk_id, n);
    // vRead_update for the chunkserver that grew a new chunk file.
    if (reader_ != nullptr) co_await reader_->update(chunk_server);
    offset += n;
    ++index;
  }
  layout_cache_.erase(path);
}

sim::Task QfsClient::fetch_layout(const std::string& path, std::vector<ChunkInfo>& out) {
  auto it = layout_cache_.find(path);
  if (it != layout_cache_.end()) {
    out = it->second;
    co_return;
  }
  co_await meta_.rpc_from(vm_);
  out = meta_.layout(path);
  layout_cache_[path] = out;
}

sim::Task QfsClient::read_chunk_range(const ChunkInfo& chunk, std::uint64_t off,
                                      std::uint64_t len, mem::Buffer& out) {
  const hw::CostModel& cm = vm_.host().costs();
  if (reader_ != nullptr) {
    std::uint64_t vfd = 0;
    auto it = vfd_hash_.find(chunk.name());
    if (it == vfd_hash_.end()) {
      Status st;
      co_await reader_->open(chunk.name(), chunk.server, vfd, st);
      if (st.ok()) vfd_hash_[chunk.name()] = vfd;
    } else {
      vfd = it->second;
    }
    if (vfd != 0) {
      hdfs::ReadRequest rr;
      rr.vfd = vfd;
      rr.offset = off;
      rr.len = len;
      hdfs::ReadResult rres;
      co_await reader_->read(rr, rres);
      const Status st = std::move(rres.status);
      out = std::move(rres.data);
      if (st.ok()) {
        co_await vm_.run_vcpu(
            cm.per_byte(out.size(), cm.client_hdfs_vread_cycles_per_byte),
            CycleCategory::kClientApp);
        if (off + out.size() >= chunk.size) {
          co_await reader_->close(vfd);
          vfd_hash_.erase(chunk.name());
        }
        co_return;
      }
      co_await reader_->close(vfd);
      vfd_hash_.erase(chunk.name());
    }
  }

  // TCP path to the chunkserver.
  TcpSocket conn;
  co_await net_.connect(vm_, chunk.server, ChunkServer::kPort, conn);
  hdfs::wire::Writer w;
  w.u8(static_cast<std::uint8_t>(11 /*kReadChunk*/));
  w.u64(chunk.id);
  w.u64(off);
  w.u64(len);
  co_await send_frame(conn, w.take(), CycleCategory::kClientApp);
  mem::Buffer resp;
  co_await recv_frame(conn, resp, CycleCategory::kClientApp);
  hdfs::wire::Reader r(resp);
  const std::int64_t actual = r.i64();
  if (actual < 0) throw QfsError("chunkserver missing " + chunk.name().str());
  co_await conn.recv_exact(static_cast<std::uint64_t>(actual), out,
                           CycleCategory::kClientApp);
  co_await vm_.run_vcpu(cm.per_byte(static_cast<std::uint64_t>(actual),
                                    cm.client_hdfs_cycles_per_byte),
                        CycleCategory::kClientApp);
  conn.close();
}

sim::Task QfsClient::pread(const std::string& path, std::uint64_t offset,
                           std::uint64_t len, mem::Buffer& out) {
  std::vector<ChunkInfo> chunks;
  co_await fetch_layout(path, chunks);
  out = mem::Buffer();
  for (const ChunkInfo& c : chunks) {
    if (!c.complete) continue;
    const std::uint64_t c_end = c.offset_in_file + c.size;
    if (c.offset_in_file >= offset + len || c_end <= offset) continue;
    const std::uint64_t lo = std::max(offset, c.offset_in_file);
    const std::uint64_t hi = std::min(offset + len, c_end);
    mem::Buffer part;
    co_await read_chunk_range(c, lo - c.offset_in_file, hi - lo, part);
    out.append(part);
  }
}

sim::Task QfsClient::read_file(const std::string& path, mem::Buffer& out) {
  co_await meta_.rpc_from(vm_);
  const std::uint64_t size = meta_.file_size(path);
  co_await pread(path, 0, size, out);
}

}  // namespace vread::qfs
