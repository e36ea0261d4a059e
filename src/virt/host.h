// Physical host (hypervisor): cores + scheduler, SSD, host page cache,
// LAN attachment, and the VMs it runs.
//
// Mirrors the paper's testbed node: quad-core Xeon (frequency-scaled for
// the cpufreq experiments), SSD-backed raw images, 10 Gbps RoCE NIC, KVM
// with vhost-net enabled.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/cost_model.h"
#include "hw/cpu.h"
#include "hw/disk.h"
#include "hw/network.h"
#include "mem/page_cache.h"
#include "metrics/accounting.h"
#include "sim/simulation.h"
#include "virt/vm.h"

namespace vread::virt {

class Host {
 public:
  struct Config {
    std::string name;
    int cores = 4;
    double freq_ghz = 2.0;
    sim::SimTime slice = sim::ms(1);
    hw::Disk::Config disk{};
    // Host page cache backing loop-mounted guest filesystems (the cache
    // vRead's daemon benefits from; the vanilla virtio path runs with
    // cache=none and bypasses it).
    std::uint64_t page_cache_bytes = 8ULL * 1024 * 1024 * 1024;
  };

  Host(sim::Simulation& sim, metrics::CycleAccounting& acct, const hw::CostModel& costs,
       hw::Lan& lan, Config config)
      : sim_(sim),
        costs_(costs),
        config_(config),
        cpu_(sim, acct,
             {.cores = config.cores, .freq_ghz = config.freq_ghz, .slice = config.slice}),
        disk_(sim, config.disk, {config.name + " disk", config.name}),
        page_cache_(config.page_cache_bytes),
        lan_(lan),
        lan_id_(lan.add_host()) {}
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  Vm& add_vm(std::string name) {
    vms_.push_back(std::make_unique<Vm>(*this, std::move(name)));
    return *vms_.back();
  }

  Vm* find_vm(const std::string& name) {
    for (auto& vm : vms_) {
      if (vm->name() == name) return vm.get();
    }
    return nullptr;
  }

  const std::string& name() const { return config_.name; }
  sim::Simulation& sim() { return sim_; }
  const hw::CostModel& costs() const { return costs_; }
  hw::CpuScheduler& cpu() { return cpu_; }
  hw::Disk& disk() { return disk_; }
  mem::PageCache& page_cache() { return page_cache_; }
  hw::Lan& lan() { return lan_; }
  hw::HostId lan_id() const { return lan_id_; }
  std::vector<std::unique_ptr<Vm>>& vms() { return vms_; }

 private:
  sim::Simulation& sim_;
  const hw::CostModel& costs_;
  Config config_;
  hw::CpuScheduler cpu_;
  hw::Disk disk_;
  mem::PageCache page_cache_;
  hw::Lan& lan_;
  hw::HostId lan_id_;
  std::vector<std::unique_ptr<Vm>> vms_;
};

}  // namespace vread::virt
