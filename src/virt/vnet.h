// Virtual TCP networking between VMs.
//
// Reproduces the vanilla HDFS data path of Fig. 1: every segment a guest
// sends crosses (a) the guest kernel TCP stack on the vCPU, (b) the
// sender's vhost-net I/O thread, (c) — same host — the receiver's
// vhost-net thread, or — cross host — the host kernel + physical wire +
// the remote vhost-net thread, and (d) the receiver's guest TCP stack on
// its vCPU. Each hop charges cycles to the thread that really does the
// work, and the per-byte ring/bridge/app copies are tagged so the
// five-copy structure of the vanilla path is checkable from the metrics.
//
// Flow control is a per-receiver window: senders block once a window's
// worth of bytes is in flight, so producer/consumer stages pipeline the
// way real TCP does.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/cost_model.h"
#include "hw/network.h"
#include "mem/buffer.h"
#include "sim/name.h"
#include "sim/sync.h"
#include "virt/host.h"
#include "virt/vm.h"

namespace vread::virt {

class VirtualNetwork;

// Error for connection misuse / reading past EOF.
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

class TcpConn {
 public:
  TcpConn(VirtualNetwork& net, Vm& initiator, Vm& acceptor, std::uint64_t window_bytes);

  // Sends `data` from endpoint `side` (0 = initiator, 1 = acceptor) to the
  // peer. `copy_cat` tags the app-buffer -> kernel copy; pass
  // `from_app_buffer = false` for sendfile-style transmits (the datanode's
  // transferTo path), which skip that copy. Returns once the kernel has
  // accepted all bytes (window). Endpoints are addressed by side, not VM,
  // because both ends may live in the SAME VM (loopback connections, e.g.
  // short-circuit fallbacks).
  sim::Task send(int side, mem::Buffer data, hw::CycleCategory copy_cat,
                 bool from_app_buffer = true, trace::Ctx ctx = {});

  // Receives exactly `n` bytes into `out` (throws NetError on premature
  // EOF). `copy_cat` tags the kernel -> app-buffer copy.
  sim::Task recv_exact(int side, std::uint64_t n, mem::Buffer& out,
                       hw::CycleCategory copy_cat, trace::Ctx ctx = {});

  // Receives 1..max bytes (whatever is available); `out` is empty at EOF.
  sim::Task recv_some(int side, std::uint64_t max, mem::Buffer& out,
                      hw::CycleCategory copy_cat, trace::Ctx ctx = {});

  // Half-close from `side`: the peer sees EOF after consuming buffered data.
  void close(int side);

  Vm& vm_of(int side) { return *sides_[static_cast<std::size_t>(side)]->vm; }

  // Trace context of the most recent traced segment consumed by `side` —
  // how a server learns which client read a received request belongs to
  // without widening the wire format (the ctx rides the segments).
  trace::Ctx last_rx_ctx(int side) const {
    return sides_[static_cast<std::size_t>(side)]->last_rx_ctx;
  }

 private:
  friend class VirtualNetwork;

  struct Segment {
    mem::Buffer data;
    std::uint64_t consumed = 0;
    bool charged = false;  // guest TCP rx processing charged yet?
    bool fin = false;
    trace::Ctx ctx{};  // sender's read context rides the segment so host-
                       // side and receiver-side copies attribute correctly
  };

  struct Side {
    Side(sim::Simulation& sim, Vm& v, std::uint64_t window)
        : vm(&v), rx_event(sim), window_sem(sim, window) {}
    Vm* vm;
    std::deque<Segment> rx;
    sim::Event rx_event;
    sim::Semaphore window_sem;  // space left in this side's receive buffer
    bool peer_closed = false;
    trace::Ctx last_rx_ctx{};  // ctx of the newest traced segment consumed
  };

  // Hands one segment to the sender-side vhost thread and onward to
  // `to_side`'s receive queue (through the bridge or the physical wire).
  void transmit(int from_side, Segment seg);
  void deliver_via_receiver_vhost(Vm& receiver, std::shared_ptr<Segment> seg,
                                  int to_side, bool from_wire);
  // Wire hop as a detached task: NIC DMA does not occupy the vhost thread.
  sim::Task wire_hop(hw::HostId src, std::uint64_t bytes, Vm* receiver,
                     std::shared_ptr<Segment> seg, int to_side);
  void enqueue_rx(int to_side, Segment seg);
  sim::Task recv_loop(int side, std::uint64_t want, bool exact, mem::Buffer& out,
                      hw::CycleCategory copy_cat, trace::Ctx ctx);

  VirtualNetwork& net_;
  std::vector<std::unique_ptr<Side>> sides_;
};

// Endpoint handle: a connection plus which side this holder is. All
// application code talks through TcpSocket so loopback connections (both
// sides in one VM) resolve unambiguously.
struct TcpSocket {
  TcpConn* conn = nullptr;
  int side = -1;

  explicit operator bool() const { return conn != nullptr; }
  Vm& vm() const { return conn->vm_of(side); }

  sim::Task send(mem::Buffer data, hw::CycleCategory copy_cat,
                 bool from_app_buffer = true, trace::Ctx ctx = {}) const {
    return conn->send(side, std::move(data), copy_cat, from_app_buffer, ctx);
  }
  sim::Task recv_exact(std::uint64_t n, mem::Buffer& out, hw::CycleCategory copy_cat,
                       trace::Ctx ctx = {}) const {
    return conn->recv_exact(side, n, out, copy_cat, ctx);
  }
  sim::Task recv_some(std::uint64_t max, mem::Buffer& out, hw::CycleCategory copy_cat,
                      trace::Ctx ctx = {}) const {
    return conn->recv_some(side, max, out, copy_cat, ctx);
  }
  trace::Ctx last_rx_ctx() const { return conn->last_rx_ctx(side); }
  void close() const { conn->close(side); }
};

class VirtualNetwork {
 public:
  // Receive window of every connection (Hadoop-era socket buffers).
  static constexpr std::uint64_t kSocketWindow = 512 * 1024;

  VirtualNetwork(sim::Simulation& sim, hw::Lan& lan, const hw::CostModel& costs)
      : sim_(sim), lan_(lan), costs_(costs) {}
  VirtualNetwork(const VirtualNetwork&) = delete;
  VirtualNetwork& operator=(const VirtualNetwork&) = delete;

  // Makes a VM addressable by name (its "IP").
  void register_vm(Vm& vm) {
    vms_[vm.name()] = &vm;
    vm_index_[sim::Name(vm.name())] = &vm;
  }

  // Opens a listening socket on (vm, port).
  void listen(Vm& vm, std::uint16_t port);

  // Blocks until a client connects to (vm, port); `out` is the acceptor-
  // side endpoint.
  sim::Task accept(Vm& vm, std::uint16_t port, TcpSocket& out);

  // Connects `client` to (server_name, port); completes after the
  // three-way handshake; `out` is the initiator-side endpoint.
  sim::Task connect(Vm& client, const std::string& server_name, std::uint16_t port,
                    TcpSocket& out);

  Vm* find_vm(const std::string& name) {
    auto it = vms_.find(name);
    return it == vms_.end() ? nullptr : it->second;
  }
  // Per-read lookup (replica choice and tiering) by interned name.
  Vm* find_vm(sim::Name name) {
    auto it = vm_index_.find(name);
    return it == vm_index_.end() ? nullptr : it->second;
  }

  sim::Simulation& sim() { return sim_; }
  hw::Lan& lan() { return lan_; }
  const hw::CostModel& costs() const { return costs_; }

  // Inter-VM shared-memory networking (paper §2.2, XenSocket/ZIVM/Nahanni
  // style): same-host transfers hand pages between VMs instead of copying
  // through the bridge, eliminating exactly ONE of the five data copies.
  // The paper's point — and what the alternatives bench shows — is that
  // this still leaves the datanode VM, both TCP stacks and the I/O thread
  // synchronization in the path.
  void set_intervm_shm(bool on) { intervm_shm_ = on; }

  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class TcpConn;

  struct Listener {
    explicit Listener(sim::Simulation& sim) : pending(sim) {}
    sim::Mailbox<TcpConn*> pending;
  };

  sim::Simulation& sim_;
  hw::Lan& lan_;
  const hw::CostModel& costs_;
  std::map<std::string, Vm*> vms_;
  std::unordered_map<sim::Name, Vm*, sim::Name::Hash> vm_index_;  // lookups only
  std::map<std::pair<std::string, std::uint16_t>, std::unique_ptr<Listener>> listeners_;
  std::vector<std::unique_ptr<TcpConn>> conns_;
  bool intervm_shm_ = false;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace vread::virt
