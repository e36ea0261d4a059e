#include "hdfs/datanode.h"

#include "fault/fault.h"
#include "hdfs/wire.h"

namespace vread::hdfs {

using hw::CycleCategory;
using virt::TcpSocket;

sim::Task send_frame(TcpSocket conn, mem::Buffer payload, CycleCategory cat,
                     trace::Ctx ctx) {
  wire::Writer w;
  w.u16(wire::u16_length(payload.size(), "frame"));
  mem::Buffer framed = w.take();
  framed.append(payload);
  co_await conn.send(std::move(framed), cat, /*from_app_buffer=*/true, ctx);
}

sim::Task recv_frame(TcpSocket conn, mem::Buffer& out, CycleCategory cat,
                     trace::Ctx ctx) {
  mem::Buffer len_raw;
  co_await conn.recv_exact(2, len_raw, cat, ctx);
  const std::uint16_t len = static_cast<std::uint16_t>(len_raw[0] | len_raw[1] << 8);
  co_await conn.recv_exact(len, out, cat, ctx);
}

DataNode::DataNode(virt::Vm& vm, NameNode& nn, virt::VirtualNetwork& net, std::string id)
    : vm_(vm), nn_(nn), net_(net), id_(std::move(id)) {}

void DataNode::start() {
  if (!vm_.fs().exists("/current")) vm_.fs().mkdir("/current");
  nn_.register_datanode(id_);  // heartbeat registration
  net_.listen(vm_, kPort);
  vm_.host().sim().spawn(accept_loop());
}

void DataNode::preload_block(const std::string& block_name, const mem::Buffer& data) {
  vm_.fs().write_file(block_path(block_name), data);
}

sim::Task DataNode::accept_loop() {
  for (;;) {
    TcpSocket conn;
    co_await net_.accept(vm_, kPort, conn);
    vm_.host().sim().spawn(handle_conn(conn));
  }
}

sim::Task DataNode::handle_conn(TcpSocket conn) {
  // Serve requests on this connection until the client closes it (clients
  // cache datanode connections for positional reads).
  for (;;) {
    mem::Buffer header;
    try {
      co_await recv_frame(conn, header, CycleCategory::kDatanodeApp);
    } catch (const virt::NetError&) {
      co_return;  // peer closed between requests
    }
    wire::Reader r(header);
    const auto op = static_cast<wire::Op>(r.u8());
    if (op == wire::Op::kReadBlock) {
      std::string block_name = r.str();
      std::uint64_t offset = r.u64();
      std::uint64_t len = r.u64();
      // The requesting client's trace context rode in on the request
      // segments; serving work joins that client's span tree.
      co_await handle_read(conn, block_name, offset, len, conn.last_rx_ctx());
    } else if (op == wire::Op::kWriteBlock) {
      std::string block_name = r.str();
      std::uint64_t total_len = r.u64();
      std::uint16_t n_downstream = r.u16();
      std::vector<std::string> downstream;
      for (std::uint16_t i = 0; i < n_downstream; ++i) downstream.push_back(r.str());
      co_await handle_write(conn, block_name, total_len, std::move(downstream));
    }
  }
}

sim::Task DataNode::handle_read(TcpSocket conn, const std::string& block_name,
                                std::uint64_t offset, std::uint64_t len,
                                trace::Ctx ctx) {
  const hw::CostModel& cm = vm_.host().costs();
  trace::Scope span = trace::Scope::open(ctx, trace::SpanKind::kStage, "datanode-serve",
                                          vm_.vcpu_tid());
  ctx = span.ctx();
  auto ino = vm_.fs().lookup(block_path(block_name));
  // Injected transient store trouble: answer "block missing" as if the
  // block file vanished mid-serve. The client's replica failover / pread
  // retry machinery absorbs it.
  if (fault::registry().should_fire(fault::points::kDatanodeReadFail)) ino.reset();
  wire::Writer w;
  if (!ino) {
    w.i64(-1);
    co_await send_frame(conn, w.take(), CycleCategory::kDatanodeApp, ctx);
    co_return;
  }
  const std::uint64_t file_size = vm_.fs().file_size(*ino);
  const std::uint64_t end = std::min(file_size, offset + len);
  const std::uint64_t actual = end > offset ? end - offset : 0;

  // Per-request setup: protocol parsing, metadata, checksum file open.
  co_await vm_.run_vcpu(cm.dn_request_overhead, CycleCategory::kDatanodeApp, ctx);
  w.i64(static_cast<std::int64_t>(actual));
  co_await send_frame(conn, w.take(), CycleCategory::kDatanodeApp, ctx);

  // Stream the range in packets: disk -> guest kernel (virtio-blk copy),
  // then transferTo-style send (no app-buffer copy), with per-byte
  // checksum/framing work charged to the datanode process.
  std::uint64_t pos = offset;
  while (pos < end) {
    const std::uint64_t n = std::min(kPacketBytes, end - pos);
    mem::Buffer chunk;
    co_await vm_.fs_read(*ino, pos, n, chunk, CycleCategory::kDatanodeApp,
                         /*copy_to_app=*/false, ctx);
    co_await vm_.run_vcpu(cm.per_byte(n, cm.dn_app_cycles_per_byte),
                          CycleCategory::kDatanodeApp, ctx);
    co_await conn.send(std::move(chunk), CycleCategory::kDatanodeApp,
                       /*from_app_buffer=*/false, ctx);
    pos += n;
  }
  ++blocks_served_;
  bytes_served_ += actual;
  span.set_bytes(actual);
}

sim::Task DataNode::handle_write(TcpSocket conn, const std::string& block_name,
                                 std::uint64_t total_len,
                                 std::vector<std::string> downstream) {
  const hw::CostModel& cm = vm_.host().costs();
  co_await vm_.run_vcpu(cm.dn_request_overhead, CycleCategory::kDatanodeApp);

  const std::string path = block_path(block_name);
  std::uint32_t ino = vm_.fs().create(path);

  // Open the forwarding connection for the replication pipeline.
  TcpSocket next;
  if (!downstream.empty()) {
    co_await net_.connect(vm_, downstream.front(), kPort, next);
    wire::Writer w;
    w.u8(static_cast<std::uint8_t>(wire::Op::kWriteBlock));
    w.str(block_name);
    w.u64(total_len);
    w.u16(static_cast<std::uint16_t>(downstream.size() - 1));
    for (std::size_t i = 1; i < downstream.size(); ++i) w.str(downstream[i]);
    co_await send_frame(next, w.take(), CycleCategory::kDatanodeApp);
  }

  std::uint64_t received = 0;
  while (received < total_len) {
    const std::uint64_t n = std::min(kPacketBytes, total_len - received);
    mem::Buffer chunk;
    co_await conn.recv_exact(n, chunk, CycleCategory::kDatanodeApp);
    co_await vm_.run_vcpu(cm.per_byte(n, cm.dn_app_cycles_per_byte),
                          CycleCategory::kDatanodeApp);
    if (next) {
      co_await next.send(chunk, CycleCategory::kDatanodeApp);
    }
    co_await vm_.fs_append(ino, chunk, CycleCategory::kDatanodeApp);
    received += n;
  }

  // Wait for the downstream ack before acking upstream.
  if (next) {
    mem::Buffer ack;
    co_await recv_frame(next, ack, CycleCategory::kDatanodeApp);
    next.close();
  }
  wire::Writer w;
  w.i64(0);
  co_await send_frame(conn, w.take(), CycleCategory::kDatanodeApp);
}

}  // namespace vread::hdfs
