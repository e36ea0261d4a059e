#include "apps/cluster.h"

#include "mem/buffer.h"

namespace vread::apps {

namespace {
// Scheduler time slice of every cluster host.
constexpr sim::SimTime kHostSlice = sim::ms(3);
}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config), lan_(sim_, config.link) {
  if (config_.racks.hosts_per_rack > 0) lan_.configure_racks(config_.racks);
  net_ = std::make_unique<virt::VirtualNetwork>(sim_, lan_, costs_);
}

Cluster::~Cluster() {
  // sim_ is the first member, so it would be destroyed last — after the
  // daemons. A run abandoned mid-flight (run_until, shed load) leaves
  // suspended daemon server frames in the simulation whose RAII guards
  // point into daemon members; reap them while every daemon is alive.
  sim_.shutdown();
}

virt::Host& Cluster::add_host(const std::string& name) {
  hosts_.push_back(std::make_unique<virt::Host>(
      sim_, acct_, costs_, lan_,
      virt::Host::Config{.name = name,
                         .cores = config_.cores_per_host,
                         .freq_ghz = config_.freq_ghz,
                         .slice = kHostSlice,
                         .disk = config_.disk,
                         .page_cache_bytes = config_.page_cache_bytes}));
  return *hosts_.back();
}

virt::Host* Cluster::host(const std::string& name) {
  for (auto& h : hosts_) {
    if (h->name() == name) return h.get();
  }
  return nullptr;
}

virt::Vm& Cluster::add_vm(const std::string& host_name, const std::string& vm_name) {
  virt::Host* h = host(host_name);
  if (h == nullptr) throw std::runtime_error("no such host: " + host_name);
  virt::Vm& vm = h->add_vm(vm_name);
  net_->register_vm(vm);
  return vm;
}

hdfs::NameNode& Cluster::create_namenode(const std::string& vm_name) {
  virt::Vm* v = vm(vm_name);
  if (v == nullptr) throw std::runtime_error("no such VM: " + vm_name);
  namenode_ = std::make_unique<hdfs::NameNode>(*v, costs_);
  return *namenode_;
}

hdfs::DataNode& Cluster::add_datanode(const std::string& host_name,
                                      const std::string& dn_id) {
  return start_datanode(add_vm(host_name, dn_id), dn_id);
}

hdfs::DataNode& Cluster::add_datanode_in_vm(const std::string& vm_name) {
  virt::Vm* v = vm(vm_name);
  if (v == nullptr) throw std::runtime_error("no such VM: " + vm_name);
  return start_datanode(*v, vm_name);
}

hdfs::DataNode& Cluster::start_datanode(virt::Vm& vm, const std::string& dn_id) {
  datanodes_.push_back(std::make_unique<hdfs::DataNode>(vm, *namenode_, *net_, dn_id));
  datanodes_.back()->start();
  if (lan_.racked()) {
    namenode_->register_datanode(dn_id, lan_.rack_of(vm.host().lan_id()));
  }
  return *datanodes_.back();
}

int Cluster::rack_of_host(const std::string& host_name) {
  if (!lan_.racked()) return -1;
  virt::Host* h = host(host_name);
  return h == nullptr ? -1 : static_cast<int>(lan_.rack_of(h->lan_id()));
}

hdfs::DfsClient& Cluster::add_client(const std::string& vm_name) {
  virt::Vm* v = vm(vm_name);
  if (v == nullptr) throw std::runtime_error("no such VM: " + vm_name);
  clients_[vm_name] = std::make_unique<hdfs::DfsClient>(*v, *namenode_, *net_);
  if (selector_) apply_routing(*clients_[vm_name]);
  return *clients_[vm_name];
}

void Cluster::enable_routing(cluster::RouteConfig route) {
  selector_ = std::make_unique<cluster::ReplicaSelector>(route);
  for (auto& [name, client] : clients_) apply_routing(*client);
  if (plane_) selector_->set_flight_recorder(&plane_->flight("router"));
}

obs::ObservabilityPlane& Cluster::enable_obs(obs::ObsConfig cfg, obs::SloConfig slo) {
  plane_ = std::make_unique<obs::ObservabilityPlane>(cfg, slo);
  // host -> rack for the per-rack rollup series (flat LAN = unracked).
  plane_->recorder().set_rack_of(
      [this](const std::string& host_name) { return rack_of_host(host_name); });
  plane_->install_fault_hook(sim_);
  for (auto& [hname, d] : daemons_) {
    d->set_observer(&plane_->recorder(), &plane_->flight(hname));
  }
  if (selector_) selector_->set_flight_recorder(&plane_->flight("router"));
  plane_->attach(sim_);
  return *plane_;
}

void Cluster::apply_routing(hdfs::DfsClient& client) {
  client.set_route(selector_.get());
  // Completion-time load probe: resolve the datanode's host, sample its
  // daemon. The piggyback is free on the wire (the signal rides the
  // completion message the way trace contexts ride segments).
  client.set_load_probe([this](const std::string& dn_id) {
    cluster::DaemonLoad load;
    virt::Vm* dn_vm = net_->find_vm(dn_id);
    if (dn_vm == nullptr) return load;
    auto it = daemons_.find(dn_vm->host().name());
    if (it == daemons_.end()) return load;
    const core::VReadDaemon::LoadSignal s = it->second->load_signal();
    load.queue_depth = s.queue_depth;
    load.inflight_bytes = s.inflight_bytes;
    return load;
  });
}

namespace {
// 85 % lookbusy: burn load*period of CPU, sleep the rest, forever.
sim::Task lookbusy_loop(virt::Vm* vm, double load, sim::SimTime period) {
  for (;;) {
    const sim::Cycles burn = vm->host().cpu().time_to_cycles(
        static_cast<sim::SimTime>(static_cast<double>(period) * load));
    co_await vm->run_vcpu(burn, hw::CycleCategory::kLookbusy);
    co_await vm->host().sim().delay(
        static_cast<sim::SimTime>(static_cast<double>(period) * (1.0 - load)));
  }
}
}  // namespace

virt::Vm& Cluster::add_lookbusy(const std::string& host_name, const std::string& vm_name,
                                double load) {
  virt::Vm& vm = add_vm(host_name, vm_name);
  sim_.spawn(lookbusy_loop(&vm, load, sim::ms(10)));
  return vm;
}

void Cluster::enable_vread(core::DaemonConfig config) {
  // One daemon per host.
  for (auto& h : hosts_) {
    auto d = std::make_unique<core::VReadDaemon>(*h, config);
    if (namenode_) d->subscribe(*namenode_);  // pure-QFS clusters have none
    daemons_[h->name()] = std::move(d);
  }
  // Datanode registry: local mount on the owning host's daemon, remote
  // peer entry everywhere else.
  for (auto& dn : datanodes_) {
    const std::string owner = dn->vm().host().name();
    for (auto& [hname, d] : daemons_) {
      if (hname == owner) {
        d->register_local_datanode(dn->id(), dn->vm().disk_image());
      } else {
        d->register_remote_datanode(dn->id(), daemons_[owner].get());
      }
    }
  }
  if (plane_) {
    for (auto& [hname, d] : daemons_) {
      d->set_observer(&plane_->recorder(), &plane_->flight(hname));
    }
  }
  // Cooperative peer tier (DESIGN.md §15): one directory shared by every
  // daemon, with rack awareness when the LAN is racked so lookups prefer
  // holders a ToR hop (not a spine hop) away.
  if (config.peer_cache.enabled) {
    peer_dir_ = std::make_unique<core::PeerCacheDirectory>(sim_);
    peer_dir_->set_rack_of(
        [this](const std::string& host_name) { return rack_of_host(host_name); });
    for (auto& [hname, d] : daemons_) {
      peer_dir_->attach(d.get());
      d->set_peer_directory(peer_dir_.get());
    }
  }
  // libvread per client VM, hooked into the DFSClient read interfaces.
  for (auto& [vm_name, client] : clients_) {
    core::VReadDaemon& local = *daemons_[client->vm().host().name()];
    libvreads_[vm_name] = std::make_unique<core::LibVread>(client->vm(), local);
    client->set_block_reader(libvreads_[vm_name].get());
  }
}

void Cluster::preload_file(const std::string& path, std::uint64_t bytes,
                           std::uint64_t seed,
                           std::vector<std::vector<std::string>> placements) {
  namenode_->create_file(path, config_.block_size);
  std::uint64_t offset = 0;
  std::uint64_t index = 0;
  while (offset < bytes) {
    const std::uint64_t n = std::min(config_.block_size, bytes - offset);
    const std::vector<std::string>& pipeline = placements[index % placements.size()];
    hdfs::BlockInfo& blk = namenode_->add_block(path, pipeline);
    mem::Buffer data = mem::Buffer::deterministic(seed, offset, n);
    for (const std::string& dn_id : pipeline) {
      hdfs::DataNode* dn = datanode(dn_id);
      if (dn == nullptr) throw std::runtime_error("no such datanode: " + dn_id);
      dn->preload_block(blk.name, data);
    }
    namenode_->complete_block(path, blk.id, n);
    offset += n;
    ++index;
  }
}

namespace {
sim::Task flag_when_done(sim::Task task, bool* done) {
  co_await std::move(task);
  *done = true;
}
}  // namespace

void Cluster::run_job(sim::Task task, sim::SimTime timeout) {
  bool done = false;
  sim_.spawn(flag_when_done(std::move(task), &done));
  const sim::SimTime deadline = sim_.now() + timeout;
  while (!done) {
    if (sim_.now() >= deadline) throw std::runtime_error("run_job: simulated timeout");
    sim_.run_until(std::min(deadline, sim_.now() + sim::ms(100)));
    if (!done && sim_.idle()) {
      throw std::runtime_error("run_job: deadlock (no pending events, job unfinished)");
    }
  }
}

void Cluster::drop_all_caches() {
  for (auto& h : hosts_) {
    h->page_cache().clear();
    for (auto& vm : h->vms()) vm->drop_caches();
  }
  for (auto& [name, d] : daemons_) d->cache().clear();
}

hdfs::DataNode* Cluster::datanode(const std::string& id) {
  for (auto& dn : datanodes_) {
    if (dn->id() == id) return dn.get();
  }
  return nullptr;
}

hdfs::DfsClient* Cluster::client(const std::string& vm_name) {
  auto it = clients_.find(vm_name);
  return it == clients_.end() ? nullptr : it->second.get();
}

core::VReadDaemon* Cluster::daemon(const std::string& host_name) {
  auto it = daemons_.find(host_name);
  return it == daemons_.end() ? nullptr : it->second.get();
}

core::LibVread* Cluster::libvread(const std::string& vm_name) {
  auto it = libvreads_.find(vm_name);
  return it == libvreads_.end() ? nullptr : it->second.get();
}

}  // namespace vread::apps
