#include "virt/vnet.h"

namespace vread::virt {

using hw::CycleCategory;

TcpConn::TcpConn(VirtualNetwork& net, Vm& initiator, Vm& acceptor,
                 std::uint64_t window_bytes)
    : net_(net) {
  sides_.push_back(std::make_unique<Side>(net.sim(), initiator, window_bytes));
  sides_.push_back(std::make_unique<Side>(net.sim(), acceptor, window_bytes));
}

sim::Task TcpConn::send(int side, mem::Buffer data, CycleCategory copy_cat,
                        bool from_app_buffer, trace::Ctx ctx) {
  const hw::CostModel& cm = net_.costs_;
  Vm& self = vm_of(side);
  const int from = side;
  const int to = 1 - from;
  std::uint64_t offset = 0;
  while (offset < data.size()) {
    const std::uint64_t n = std::min<std::uint64_t>(cm.segment_size, data.size() - offset);
    // Receiver-window flow control: block while a window of bytes is in flight.
    co_await sides_[static_cast<std::size_t>(to)]->window_sem.acquire(n);

    // Guest TCP transmit path on the sender's vCPU.
    co_await self.run_vcpu(cm.tcp_tx_per_segment, CycleCategory::kGuestNetTx, ctx);
    if (from_app_buffer) {
      // Copy: app buffer -> kernel socket buffer (skipped by sendfile).
      const trace::Scope copy = trace::Scope::copy(ctx, "copy app->skb", self.vcpu_tid(), n);
      co_await self.run_vcpu(cm.copy_cost(n), copy_cat, ctx);
    }
    // Copy: socket buffer -> virtio TX ring, plus vqueue descriptor work.
    const trace::Scope copy = trace::Scope::copy(ctx, "copy skb->tx-ring", self.vcpu_tid(), n);
    co_await self.run_vcpu(cm.virtio_per_segment + cm.copy_cost(n),
                           CycleCategory::kVirtioCopy, ctx);

    Segment seg;
    seg.data = data.slice(offset, n);
    seg.ctx = ctx;
    transmit(from, std::move(seg));
    offset += n;
    ++net_.segments_sent_;
    net_.bytes_sent_ += n;
  }
}

sim::Task TcpConn::wire_hop(hw::HostId src, std::uint64_t bytes, Vm* receiver,
                            std::shared_ptr<Segment> seg, int to_side) {
  const trace::Scope wire = trace::Scope::after(seg->ctx, trace::SpanKind::kTransport,
                                                "lan-wire", net_.lan_.wire_track(), bytes);
  co_await net_.lan_.transfer(src, receiver->host().lan_id(), bytes);
  deliver_via_receiver_vhost(*receiver, std::move(seg), to_side, /*from_wire=*/true);
}

void TcpConn::transmit(int from_side, Segment seg) {
  const hw::CostModel& cm = net_.costs_;
  Vm* sender = sides_[static_cast<std::size_t>(from_side)]->vm;
  Vm* receiver = sides_[static_cast<std::size_t>(1 - from_side)]->vm;
  const bool same_host = &sender->host() == &receiver->host();
  const std::uint64_t n = seg.data.size();
  const int to_side = 1 - from_side;

  // Stage 1: the sender's vhost-net thread pulls the segment off the TX
  // ring (the host-side / inter-VM copy).
  auto seg_ptr = std::make_shared<Segment>(std::move(seg));
  sender->io_thread().submit(
      [this, sender, receiver, seg_ptr, n, &cm, same_host, to_side]() -> sim::Task {
        const trace::Ctx ctx = seg_ptr->ctx;
        {
          const trace::Scope copy = trace::Scope::copy(
              ctx, "copy vhost-pull", sender->io_thread().tid(), n);
          co_await sender->host().cpu().consume(sender->io_thread().tid(),
                                                cm.vhost_per_segment + cm.copy_cost(n),
                                                CycleCategory::kVhostNet, ctx);
        }
        if (same_host) {
          // Bridge delivery straight to the receiver VM's vhost thread.
          deliver_via_receiver_vhost(*receiver, seg_ptr, to_side, /*from_wire=*/false);
        } else {
          // Host kernel TX processing, then the physical wire.
          co_await sender->host().cpu().consume(
              sender->io_thread().tid(), cm.hostnet_per_segment,
              CycleCategory::kHostNet, ctx);
          net_.sim_.spawn(
              wire_hop(sender->host().lan_id(), n, receiver, seg_ptr, to_side));
        }
      });
}

void TcpConn::deliver_via_receiver_vhost(Vm& receiver, std::shared_ptr<Segment> seg,
                                         int to_side, bool from_wire) {
  const hw::CostModel& cm = net_.costs_;
  Vm* recv = &receiver;
  const std::uint64_t n = seg->data.size();
  const bool shm_path = net_.intervm_shm_ && !from_wire;
  recv->io_thread().submit(
      [this, recv, seg, to_side, n, &cm, from_wire, shm_path]() -> sim::Task {
        const trace::Ctx ctx = seg->ctx;
        if (from_wire) {
          // Host kernel RX processing for traffic arriving off the NIC.
          co_await recv->host().cpu().consume(recv->io_thread().tid(),
                                              cm.hostnet_per_segment,
                                              CycleCategory::kHostNet, ctx);
        }
        // vhost-net per-segment work, then the copy into the virtio RX
        // ring — the copy the §2.2 inter-VM shared-memory alternative
        // eliminates (pages are granted, not copied).
        co_await recv->host().cpu().consume(recv->io_thread().tid(),
                                            cm.vhost_per_segment,
                                            CycleCategory::kVhostNet, ctx);
        if (!shm_path) {
          const trace::Scope copy = trace::Scope::copy(
              ctx, "copy vhost->rx-ring", recv->io_thread().tid(), n);
          co_await recv->host().cpu().consume(recv->io_thread().tid(), cm.copy_cost(n),
                                              CycleCategory::kVirtioCopy, ctx);
        }
        enqueue_rx(to_side, std::move(*seg));
      });
}

void TcpConn::enqueue_rx(int to_side, Segment seg) {
  Side& side = *sides_[static_cast<std::size_t>(to_side)];
  if (seg.fin) {
    side.peer_closed = true;
  } else {
    side.rx.push_back(std::move(seg));
  }
  side.rx_event.set();
}

sim::Task TcpConn::recv_loop(int my_side, std::uint64_t want, bool exact,
                             mem::Buffer& out, CycleCategory copy_cat, trace::Ctx ctx) {
  const hw::CostModel& cm = net_.costs_;
  Vm& self = vm_of(my_side);
  Side& side = *sides_[static_cast<std::size_t>(my_side)];
  out = mem::Buffer();
  while (out.size() < want) {
    if (side.rx.empty()) {
      if (side.peer_closed) {
        if (exact && out.size() > 0) throw NetError("connection closed mid-message");
        co_return;  // EOF (empty, or partial non-exact read)
      }
      if (!exact && out.size() > 0) co_return;  // got something; return it
      side.rx_event.reset();
      co_await side.rx_event.wait();
      continue;
    }
    Segment& seg = side.rx.front();
    if (seg.ctx) side.last_rx_ctx = seg.ctx;
    if (!seg.charged) {
      // Guest TCP receive processing + virtual interrupt, on first touch.
      co_await self.run_vcpu(cm.tcp_rx_per_segment + cm.interrupt_inject,
                             CycleCategory::kGuestNetRx, ctx);
      seg.charged = true;
    }
    const std::uint64_t avail = seg.data.size() - seg.consumed;
    const std::uint64_t take = std::min(avail, want - out.size());
    // Copy: kernel socket buffer -> application buffer.
    const trace::Scope copy = trace::Scope::copy(ctx, "copy skb->app", self.vcpu_tid(), take);
    co_await self.run_vcpu(cm.copy_cost(take), copy_cat, ctx);
    out.append(seg.data.slice(seg.consumed, take));
    seg.consumed += take;
    side.window_sem.release(take);
    if (seg.consumed == seg.data.size()) side.rx.pop_front();
  }
}

sim::Task TcpConn::recv_exact(int side, std::uint64_t n, mem::Buffer& out,
                              CycleCategory copy_cat, trace::Ctx ctx) {
  co_await recv_loop(side, n, /*exact=*/true, out, copy_cat, ctx);
  if (out.size() < n) throw NetError("EOF before " + std::to_string(n) + " bytes");
}

sim::Task TcpConn::recv_some(int side, std::uint64_t max, mem::Buffer& out,
                             CycleCategory copy_cat, trace::Ctx ctx) {
  co_await recv_loop(side, max, /*exact=*/false, out, copy_cat, ctx);
}

void TcpConn::close(int side) {
  Segment fin;
  fin.fin = true;
  transmit(side, std::move(fin));
}

void VirtualNetwork::listen(Vm& vm, std::uint16_t port) {
  listeners_[{vm.name(), port}] = std::make_unique<Listener>(sim_);
}

sim::Task VirtualNetwork::accept(Vm& vm, std::uint16_t port, TcpSocket& out) {
  auto it = listeners_.find({vm.name(), port});
  if (it == listeners_.end()) throw NetError("accept: no listener on " + vm.name());
  out = TcpSocket{co_await it->second->pending.recv(), /*side=*/1};
  // Server-side handshake processing.
  co_await vm.run_vcpu(costs_.tcp_connect, CycleCategory::kGuestNetRx);
}

sim::Task VirtualNetwork::connect(Vm& client, const std::string& server_name,
                                  std::uint16_t port, TcpSocket& out) {
  Vm* server = find_vm(server_name);
  if (server == nullptr) throw NetError("connect: unknown VM " + server_name);
  auto it = listeners_.find({server_name, port});
  if (it == listeners_.end()) {
    throw NetError("connect: connection refused by " + server_name);
  }
  co_await client.run_vcpu(costs_.tcp_connect, CycleCategory::kGuestNetTx);
  // SYN/SYN-ACK/ACK round trip: same-host handshakes ride the bridge,
  // remote ones cross the wire twice.
  const bool same_host = &client.host() == &server->host();
  co_await sim_.delay(same_host ? sim::us(60) : sim::us(200));
  conns_.push_back(std::make_unique<TcpConn>(*this, client, *server, kSocketWindow));
  out = TcpSocket{conns_.back().get(), /*side=*/0};
  it->second->pending.send(conns_.back().get());
}

}  // namespace vread::virt
