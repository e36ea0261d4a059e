// Physical network: per-host NIC serialization plus a switched LAN.
//
// Timing only — CPU costs of network processing are charged by the software
// layers (guest TCP, vhost-net, host kernel, RDMA verbs) via the cost
// model. The testbed's 10 Gbps LAN is the default. RoCE traffic shares the
// same NIC/wire as TCP (converged Ethernet), so both go through the same
// link objects.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulation.h"
#include "sim/time.h"
#include "trace/tracer.h"

namespace vread::hw {

using HostId = std::uint32_t;

// One direction of a host NIC: transfers serialize at wire bandwidth, then
// arrive after the propagation delay.
class NetworkLink {
 public:
  struct Config {
    double bw_gbps = 10.0;
    sim::SimTime propagation = sim::us(30);  // switch + cable + NIC latency
  };

  explicit NetworkLink(Config config) : config_(config) {}
  NetworkLink(const NetworkLink&) = delete;
  NetworkLink& operator=(const NetworkLink&) = delete;

  // Store-and-forward building block: schedules `bytes` onto the link no
  // earlier than `earliest` and returns the arrival time at the far end.
  // Multi-hop paths chain this — each hop starts once the previous hop's
  // last byte has landed.
  sim::SimTime schedule_at(sim::SimTime earliest, std::uint64_t bytes) {
    bytes_sent_ += bytes;
    const double bw = config_.bw_gbps * 1e9 / 8.0;  // bytes per second
    const sim::SimTime xfer =
        static_cast<sim::SimTime>(static_cast<double>(bytes) / bw * 1e9);
    sim::SimTime depart = std::max(earliest, next_free_) + xfer;
    next_free_ = depart;
    return depart + config_.propagation;
  }

  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  Config config_;
  sim::SimTime next_free_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

// Switched LAN: each host gets one egress link; sending serializes on the
// sender's NIC (full-duplex switch fabric assumed non-blocking).
//
// Rack topology (optional, see docs/TOPOLOGY.md): configure_racks() groups
// hosts into fixed-size racks, each with a top-of-rack switch. Same-rack
// traffic still only serializes on the sender's NIC; cross-rack traffic
// additionally crosses the source rack's ToR uplink and the destination
// rack's ToR downlink — shared, possibly oversubscribed links where rack-
// scale contention shows up.
class Lan {
 public:
  struct RackConfig {
    std::uint32_t hosts_per_rack = 0;  // 0 = flat LAN (no racks)
    NetworkLink::Config uplink{};      // ToR<->spine link, per direction
    double oversubscription = 1.0;     // divides uplink bandwidth (e.g. 4.0 = 4:1)
  };

  Lan(sim::Simulation& sim, NetworkLink::Config link_config = {})
      : sim_(sim), link_config_(link_config) {}

  HostId add_host() {
    links_.push_back(std::make_unique<NetworkLink>(link_config_));
    return static_cast<HostId>(links_.size() - 1);
  }

  // Groups hosts into racks of `rc.hosts_per_rack` (host ids are assigned
  // sequentially, so rack = id / hosts_per_rack). ToR links are created
  // lazily, so hosts may be added after configuration. hosts_per_rack == 0
  // restores the flat non-blocking fabric.
  void configure_racks(const RackConfig& rc) {
    rack_cfg_ = rc;
    tor_link_cfg_ = rc.uplink;
    tor_link_cfg_.bw_gbps = rc.uplink.bw_gbps / std::max(1.0, rc.oversubscription);
    rack_up_.clear();
    rack_down_.clear();
  }

  bool racked() const { return rack_cfg_.hosts_per_rack != 0; }
  std::uint32_t rack_of(HostId host) const {
    return racked() ? host / rack_cfg_.hosts_per_rack : 0;
  }

  struct PathAwaiter {
    Lan& lan;
    HostId src, dst;
    std::uint64_t bytes;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      lan.sim_.resume_at(lan.route(src, dst, bytes), h);
    }
    void await_resume() const noexcept {}
  };

  // Awaitable transfer honoring rack topology. With no racks configured
  // (or src/dst in the same rack) this is exactly the sender-NIC
  // serialization the flat LAN always modeled.
  PathAwaiter transfer(HostId src, HostId dst, std::uint64_t bytes) {
    return PathAwaiter{*this, src, dst, bytes};
  }

  // The trace track every wire hop on this LAN lands on.
  const trace::TrackName& wire_track() const { return wire_track_; }

  std::size_t host_count() const { return links_.size(); }
  std::uint64_t cross_rack_bytes() const { return cross_rack_bytes_; }

 private:
  sim::SimTime route(HostId src, HostId dst, std::uint64_t bytes) {
    sim::SimTime t = links_[src]->schedule_at(sim_.now(), bytes);
    if (racked() && rack_of(src) != rack_of(dst)) {
      t = tor(rack_up_, rack_of(src)).schedule_at(t, bytes);
      t = tor(rack_down_, rack_of(dst)).schedule_at(t, bytes);
      cross_rack_bytes_ += bytes;
    }
    return t;
  }

  NetworkLink& tor(std::vector<std::unique_ptr<NetworkLink>>& v, std::uint32_t rack) {
    while (v.size() <= rack) v.push_back(std::make_unique<NetworkLink>(tor_link_cfg_));
    return *v[rack];
  }

  sim::Simulation& sim_;
  NetworkLink::Config link_config_;
  std::vector<std::unique_ptr<NetworkLink>> links_;
  RackConfig rack_cfg_{};
  NetworkLink::Config tor_link_cfg_{};  // uplink config with oversubscription applied
  std::vector<std::unique_ptr<NetworkLink>> rack_up_;    // rack -> spine
  std::vector<std::unique_ptr<NetworkLink>> rack_down_;  // spine -> rack
  std::uint64_t cross_rack_bytes_ = 0;
  trace::TrackName wire_track_{"lan-wire", "lan"};
};

}  // namespace vread::hw
