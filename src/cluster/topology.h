// Rack-scale cluster topology: racks -> hosts -> VMs (docs/TOPOLOGY.md).
//
// The topology is pure metadata — which host sits in which rack, and how
// oversubscribed the ToR uplinks are. The timing consequences live in
// cluster::FlowSim (which shares link capacity per epoch instead of per
// packet); the detailed engine's racks are hw::Lan's own RackConfig. Host
// ids are dense and assigned in creation order, matching hw::Lan's
// sequential HostId assignment, so rack membership is a pure function:
// rack = host / hosts_per_rack.
#pragma once

#include <cstdint>
#include <string>

namespace vread::cluster {

// Path cost tier between a reader and a replica, cheapest first. The
// ordering is the paper's access-delay hierarchy: the same-host shm
// shortcut beats a same-rack daemon-to-daemon transfer, which beats a
// cross-rack path over the oversubscribed ToR uplinks.
enum class PathTier : std::uint8_t {
  kSameHost = 0,   // shm ring shortcut, never touches the NIC
  kSameRack = 1,   // daemon-to-daemon through the non-blocking ToR
  kCrossRack = 2,  // ToR uplink -> spine -> ToR downlink
};

inline const char* tier_name(PathTier t) {
  switch (t) {
    case PathTier::kSameHost:
      return "same-host";
    case PathTier::kSameRack:
      return "same-rack";
    default:
      return "cross-rack";
  }
}

struct TopologyConfig {
  std::uint32_t racks = 1;
  std::uint32_t hosts_per_rack = 1;
  std::uint32_t vms_per_host = 1;
  double oversubscription = 1.0;  // divides uplink bandwidth (4.0 = 4:1)
};

// Dense host-id geometry over a TopologyConfig.
class Topology {
 public:
  explicit Topology(TopologyConfig cfg) : cfg_(cfg) {}

  const TopologyConfig& config() const { return cfg_; }
  std::uint32_t racks() const { return cfg_.racks; }
  std::uint32_t host_count() const { return cfg_.racks * cfg_.hosts_per_rack; }
  std::uint32_t vm_count() const { return host_count() * cfg_.vms_per_host; }

  std::uint32_t rack_of(std::uint32_t host) const { return host / cfg_.hosts_per_rack; }
  std::uint32_t host_of_vm(std::uint32_t vm) const { return vm / cfg_.vms_per_host; }

  PathTier tier(std::uint32_t src_host, std::uint32_t dst_host) const {
    if (src_host == dst_host) return PathTier::kSameHost;
    if (rack_of(src_host) == rack_of(dst_host)) return PathTier::kSameRack;
    return PathTier::kCrossRack;
  }

 private:
  TopologyConfig cfg_;
};

}  // namespace vread::cluster
