// Cluster builder: assembles hosts, VMs, HDFS daemons, the vRead stack and
// background load into the topologies the paper evaluates (Fig. 10), and
// provides the measurement windows the benches report from.
//
// Typical usage (the paper's hybrid setup):
//   Cluster c({.freq_ghz = 2.0});
//   c.add_host("host1"); c.add_host("host2");
//   auto& client = c.add_vm("host1", "client");
//   c.create_namenode("client");                    // namenode in client VM
//   c.add_datanode("host1", "datanode1");           // co-located
//   c.add_datanode("host2", "datanode2");           // remote
//   c.add_client("client");
//   c.add_lookbusy("host1", "bg1", 0.85); ...       // background VMs
//   c.preload_file("/data", bytes, seed, {{"datanode1"}, {"datanode2"}});
//   c.enable_vread(core::VReadDaemon::Transport::kRdma);   // or skip: vanilla
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/route.h"
#include "cluster/topology.h"
#include "core/libvread.h"
#include "core/vread_daemon.h"
#include "hdfs/datanode.h"
#include "hdfs/dfs_client.h"
#include "hdfs/namenode.h"
#include "hw/cost_model.h"
#include "hw/network.h"
#include "metrics/accounting.h"
#include "obs/plane.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "virt/host.h"
#include "virt/vnet.h"

namespace vread::apps {

struct ClusterConfig {
  int cores_per_host = 4;       // quad-core Xeon testbed
  double freq_ghz = 2.0;        // cpufreq-set value
  hw::Disk::Config disk{};      // SSD defaults
  // Host page cache per host (virt::Host::Config default, 8 GiB). Benches
  // that need the disk to stay the bottleneck shrink this: a cache that
  // swallows the working set hides every read the tier under test saves.
  std::uint64_t page_cache_bytes = 8ULL * 1024 * 1024 * 1024;
  hw::NetworkLink::Config link{};  // 10 Gbps LAN testbed defaults
  // Scaled-down HDFS block size (paper default 64 MB; benches use smaller
  // files — ratios are preserved, see DESIGN.md scaling note).
  std::uint64_t block_size = 32ULL * 1024 * 1024;
  // Rack topology (docs/TOPOLOGY.md): hosts_per_rack > 0 groups hosts into
  // racks (in add_host order) with oversubscribable ToR uplinks, and makes
  // the namenode's default placement rack-aware. 0 keeps the flat LAN.
  hw::Lan::RackConfig racks{};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- topology ---
  virt::Host& add_host(const std::string& name);
  virt::Vm& add_vm(const std::string& host_name, const std::string& vm_name);
  hdfs::NameNode& create_namenode(const std::string& vm_name);
  // Creates a VM named `dn_id` on `host_name` running a datanode.
  hdfs::DataNode& add_datanode(const std::string& host_name, const std::string& dn_id);
  // Runs a datanode inside an EXISTING VM (same-OS deployments, e.g. the
  // §2.2 Short-Circuit-Local-Reads packing of client + datanode into one
  // VM). The datanode id is the VM's name.
  hdfs::DataNode& add_datanode_in_vm(const std::string& vm_name);
  // Wraps an existing VM in a DfsClient.
  hdfs::DfsClient& add_client(const std::string& vm_name);
  // Background VM running `load` (e.g. 0.85) worth of CPU burn.
  virt::Vm& add_lookbusy(const std::string& host_name, const std::string& vm_name,
                         double load);

  // Installs the vRead stack: one daemon per host, datanode registry
  // (local mounts / remote peers), namenode subscription, one libvread +
  // shared-memory channel per client. Call after topology and preload.
  // Every daemon is constructed with the same DaemonConfig.
  void enable_vread(core::DaemonConfig config);
  void enable_vread(core::VReadDaemon::Transport transport =
                        core::VReadDaemon::Transport::kRdma) {
    enable_vread(core::DaemonConfig{.transport = transport});
  }
  bool vread_enabled() const { return !daemons_.empty(); }

  // Replica-aware read routing (docs/TOPOLOGY.md): one shared selector for
  // every client (existing and future), so load feedback from any reader
  // steers them all. The load probe samples the serving host's daemon at
  // completion time; call after enable_vread() for live signals (clients
  // work either way — probes of unknown daemons return an idle signal).
  void enable_routing(cluster::RouteConfig route);
  cluster::ReplicaSelector* route_selector() { return selector_.get(); }

  // Observability plane (DESIGN.md §14): scrapes the registry on a sim-time
  // cadence, maintains per-rack rollups and heavy-hitter summaries, runs
  // SLO burn-rate alerting and gives every daemon (plus the shared route
  // selector) a flight recorder. Attaching is order-independent: daemons
  // and selectors created later are wired as they appear. The scrape is a
  // dispatch-loop probe — obs-on runs stay bit-identical to obs-off.
  obs::ObservabilityPlane& enable_obs(obs::ObsConfig cfg = {},
                                      obs::SloConfig slo = {});
  obs::ObservabilityPlane* obs() { return plane_.get(); }

  // Cooperative peer cache directory (DESIGN.md §15). Built by
  // enable_vread() when config.peer_cache.enabled; nullptr otherwise.
  core::PeerCacheDirectory* peer_directory() { return peer_dir_.get(); }

  // --- data management ---
  // Instantly materializes an HDFS file (no simulated cost): block i goes
  // to placements[i % placements.size()], content is deterministic from
  // `seed` so readers can verify integrity.
  void preload_file(const std::string& path, std::uint64_t bytes, std::uint64_t seed,
                    std::vector<std::vector<std::string>> placements);

  // Placement policy for timed writes: every block on the given pipeline.
  static hdfs::DfsClient::Placement place_on(std::vector<std::string> pipeline) {
    return [pipeline](std::uint64_t) { return pipeline; };
  }

  // Cold-read state: drops every guest cache and the host page caches.
  void drop_all_caches();

  // Runs a workload task to completion even while infinite background
  // processes (lookbusy, server accept loops) keep the event queue
  // non-empty: steps simulated time until the task finishes. Throws if
  // `timeout` of simulated time passes first.
  void run_job(sim::Task task, sim::SimTime timeout = sim::sec(36000));

  // --- measurement ---
  struct Window {
    metrics::CycleAccounting::Snapshot snap;
    sim::SimTime start = 0;
  };
  Window begin_window() { return Window{acct_.snapshot(), sim_.now()}; }
  sim::SimTime window_elapsed(const Window& w) const { return sim_.now() - w.start; }
  // CPU milliseconds consumed by a group (VM or host) inside the window.
  double window_cpu_ms(const Window& w, const std::string& group) const {
    return sim::to_millis(acct_.group_busy_since(w.snap, group));
  }
  // Cycles consumed by a group per category inside the window.
  sim::Cycles window_cycles(const Window& w, const std::string& group,
                            metrics::CycleCategory cat) const {
    return acct_.group_total_since(w.snap, group, cat);
  }

  // --- accessors ---
  sim::Simulation& sim() { return sim_; }
  metrics::CycleAccounting& acct() { return acct_; }
  const hw::CostModel& costs() const { return costs_; }
  virt::VirtualNetwork& net() { return *net_; }
  const ClusterConfig& config() const { return config_; }
  virt::Host* host(const std::string& name);
  virt::Vm* vm(const std::string& name) { return net_->find_vm(name); }
  hdfs::NameNode& namenode() { return *namenode_; }
  hdfs::DataNode* datanode(const std::string& id);
  hdfs::DfsClient* client(const std::string& vm_name);
  core::VReadDaemon* daemon(const std::string& host_name);
  core::LibVread* libvread(const std::string& vm_name);

 private:
  ClusterConfig config_;
  sim::Simulation sim_;
  metrics::CycleAccounting acct_;
  const hw::CostModel costs_{};  // the paper calibration, fixed for the cluster's life
  hw::Lan lan_;
  std::vector<std::unique_ptr<virt::Host>> hosts_;
  std::unique_ptr<virt::VirtualNetwork> net_;
  std::unique_ptr<hdfs::NameNode> namenode_;
  std::vector<std::unique_ptr<hdfs::DataNode>> datanodes_;
  std::map<std::string, std::unique_ptr<hdfs::DfsClient>> clients_;
  // Declared before daemons_ so the directory outlives every daemon that
  // holds a pointer into it (members destroy in reverse order).
  std::unique_ptr<core::PeerCacheDirectory> peer_dir_;
  std::map<std::string, std::unique_ptr<core::VReadDaemon>> daemons_;
  std::map<std::string, std::unique_ptr<core::LibVread>> libvreads_;
  std::unique_ptr<cluster::ReplicaSelector> selector_;
  std::unique_ptr<obs::ObservabilityPlane> plane_;

  void apply_routing(hdfs::DfsClient& client);
  // Creates, starts and (on a racked LAN) rack-registers the datanode
  // `dn_id` in `vm`.
  hdfs::DataNode& start_datanode(virt::Vm& vm, const std::string& dn_id);
  // The rack of a host, or -1 on a flat LAN or for an unknown host.
  int rack_of_host(const std::string& host_name);
};

}  // namespace vread::apps
