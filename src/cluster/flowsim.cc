#include "cluster/flowsim.h"

#include <algorithm>
#include <list>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "hw/network.h"

namespace vread::cluster {
namespace {

// Seed of the block placement and read draws.
constexpr std::uint64_t kSeed = 42;
// Rate-allocation period: every epoch each link divides its capacity
// evenly among its flows.
constexpr sim::SimTime kEpoch = sim::us(500);

// Skewed access: a fraction of blocks is "hot" and attracts a
// disproportionate share of reads — the load-spreading case.
constexpr double kHotFraction = 0.05;
constexpr double kHotProbability = 0.5;

// Per-host service capacities (Gbps). The shortcut rate bounds same-host
// shm reads; the serve rate bounds everything a host's daemon ships to
// remote readers (disk + daemon CPU, shared across its flows). The NIC is
// a default hw::NetworkLink.
constexpr double kShortcutGbps = 20.0;
constexpr double kServeGbps = 8.0;
constexpr double kHostLinkGbps = hw::NetworkLink::Config{}.bw_gbps;
// ToR<->spine bandwidth per direction, before TopologyConfig's
// oversubscription divides it.
constexpr double kUplinkGbps = 40.0;

class FlowSim {
 public:
  explicit FlowSim(const FlowSimConfig& cfg)
      : cfg_(cfg), topo_(cfg.topo), selector_(cfg.route), rng_(kSeed) {
    const std::uint32_t hosts = topo_.host_count();
    host_names_.reserve(hosts);
    for (std::uint32_t h = 0; h < hosts; ++h) {
      std::string name = "h";
      name += std::to_string(h);
      host_names_.push_back(std::move(name));
    }
    shortcut_n_.assign(hosts, 0);
    serve_n_.assign(hosts, 0);
    nic_n_.assign(hosts, 0);
    up_n_.assign(topo_.racks(), 0);
    down_n_.assign(topo_.racks(), 0);
    host_active_.assign(hosts, 0);
    host_inflight_.assign(hosts, 0);
    if (cfg_.peer_cache) {
      host_lru_.resize(hosts);
      host_pos_.resize(hosts);
      holders_.resize(cfg_.blocks);
    }
    rack_up_bytes_.assign(topo_.racks(), 0);
    prev_rack_up_.assign(topo_.racks(), 0);
    place_blocks();
    if (cfg_.dispatch_digest) sim_.enable_dispatch_digest();
    if (cfg_.flight != nullptr) selector_.set_flight_recorder(cfg_.flight);
    if (cfg_.obs != nullptr) attach_obs();
  }

  FlowSimResult run() {
    const std::uint32_t readers = topo_.vm_count();
    for (std::uint32_t r = 0; r < readers; ++r) {
      sim_.post_at(0, [this, r] { start_read(r); });
    }
    sim_.post(kEpoch, [this] { step(); });
    sim_.run();
    if (cfg_.obs != nullptr) {
      // Drain the batched heavy-hitter feed (one merged summary update per
      // distinct block for the whole run — FlowSim's block universe is
      // bounded, so exact per-block totals are affordable and the summary
      // only needs them when the run's timeline is exported).
      for (const std::uint64_t b : dirty_blocks_) {
        cfg_.obs->record_block_access(b, pending_block_bytes_[b]);
        pending_block_bytes_[b] = 0;
      }
      dirty_blocks_.clear();
      // Trailing flush: the probe only fires between dispatched events, so
      // the final partial interval would otherwise go unrecorded.
      cfg_.obs->tick(sim_.now());
      cfg_.obs->detach();
    }

    FlowSimResult res;
    res.sim_seconds = static_cast<double>(sim_.now()) / 1e9;
    res.reads = done_;
    res.bytes = bytes_;
    res.aggregate_mb_s =
        res.sim_seconds > 0 ? static_cast<double>(bytes_) / 1e6 / res.sim_seconds : 0;
    res.cross_rack_bytes = cross_rack_bytes_;
    res.chosen_same_host = selector_.chosen(PathTier::kSameHost);
    res.chosen_same_rack = selector_.chosen(PathTier::kSameRack);
    res.chosen_cross_rack = selector_.chosen(PathTier::kCrossRack);
    res.overload_avoided = selector_.overload_avoided();
    res.feedback_reports = selector_.feedback_reports();
    res.epochs = epochs_;
    res.events_dispatched = sim_.events_dispatched();
    res.dispatch_digest = sim_.dispatch_digest();
    res.peer_local_hits = peer_local_hits_;
    res.peer_fetches = peer_fetches_;
    res.disk_reads = disk_reads_;
    return res;
  }

 private:
  // Installs the recorder as the model sim's dispatch probe and registers
  // the flow-level sources: per-rack uplink byte deltas, cluster-wide
  // cross-rack byte deltas (the series the bytes SLO watches) and the
  // active-flow level. Sources only read model state — no events posted.
  void attach_obs() {
    using Series = obs::TimeSeriesRecorder::Series;
    obs::TimeSeriesRecorder* o = cfg_.obs;
    o->set_key_namer([](std::uint64_t k) {
      std::string name = "b";
      name += std::to_string(k);
      return name;
    });
    // Series handles are resolved once: the source runs every scrape tick
    // for every rack, and the obs ablation's <3 % wall budget counts
    // every string key it would otherwise rebuild.
    Series* flows = o->resolve("vread_obs_flows_active", {}, obs::SeriesKind::kGauge);
    Series* xrack = o->resolve("vread_route_cross_rack_bytes_total", {},
                               obs::SeriesKind::kCounter);
    std::vector<Series*> rack_up;
    for (std::uint32_t r = 0; r < topo_.racks(); ++r) {
      rack_up.push_back(o->resolve("vread_obs_rack_uplink_bytes",
                                   {{"rack", std::to_string(r)}},
                                   obs::SeriesKind::kCounter));
    }
    pending_block_bytes_.assign(cfg_.blocks, 0);
    dirty_blocks_.reserve(cfg_.blocks);
    o->add_source([this, flows, xrack, rack_up = std::move(rack_up)](sim::SimTime t) {
      obs::TimeSeriesRecorder::sample(flows, t, static_cast<double>(flows_.size()));
      obs::TimeSeriesRecorder::sample(
          xrack, t, static_cast<double>(cross_rack_bytes_ - prev_cross_));
      prev_cross_ = cross_rack_bytes_;
      for (std::uint32_t r = 0; r < topo_.racks(); ++r) {
        obs::TimeSeriesRecorder::sample(
            rack_up[r], t, static_cast<double>(rack_up_bytes_[r] - prev_rack_up_[r]));
        prev_rack_up_[r] = rack_up_bytes_[r];
      }
    });
    o->attach(sim_);
  }

  struct Flow {
    std::uint32_t reader;    // VM index (restarts its loop on completion)
    std::uint32_t src, dst;  // serving host, reader host
    PathTier tier;
    double remaining;           // payload bytes left
    std::uint64_t block = 0;    // cached on the reader's host at completion
  };

  // HDFS rack-aware placement of three replicas: first on the "writer"
  // host, second in a different rack, third alongside the second.
  void place_blocks() {
    const std::uint32_t hosts = topo_.host_count();
    const std::uint32_t hpr = cfg_.topo.hosts_per_rack;
    blocks_.resize(cfg_.blocks);
    for (std::uint64_t b = 0; b < cfg_.blocks; ++b) {
      std::vector<std::uint32_t>& reps = blocks_[b];
      const std::uint32_t r1 = static_cast<std::uint32_t>(b % hosts);
      reps.push_back(r1);
      std::uint32_t rack2 = topo_.rack_of(r1);
      if (topo_.racks() > 1) {
        rack2 = (rack2 + 1 +
                 static_cast<std::uint32_t>(rng_.uniform(0, topo_.racks() - 2))) %
                topo_.racks();
      }
      const std::uint32_t r2 =
          rack2 * hpr + static_cast<std::uint32_t>(rng_.uniform(0, hpr - 1));
      if (r2 != r1) reps.push_back(r2);
      if (hpr > 1) {
        std::uint32_t r3 = rack2 * hpr + (r2 % hpr + 1 +
                                          static_cast<std::uint32_t>(
                                              rng_.uniform(0, hpr - 2))) %
                                             hpr;
        if (r3 != r1 && r3 != r2) reps.push_back(r3);
      }
    }
  }

  void start_read(std::uint32_t reader) {
    if (issued_ >= cfg_.reads) return;
    ++issued_;
    const std::uint32_t dst = topo_.host_of_vm(reader);
    // Skewed block pick: the hot set soaks up kHotProbability of reads.
    const std::uint64_t hot_n = std::min(
        cfg_.blocks, std::max<std::uint64_t>(
                         1, static_cast<std::uint64_t>(
                                static_cast<double>(cfg_.blocks) * kHotFraction)));
    const std::uint64_t b = hot_n >= cfg_.blocks ||
                                    rng_.uniform01() < kHotProbability
                                ? rng_.uniform(0, hot_n - 1)
                                : rng_.uniform(hot_n, cfg_.blocks - 1);

    // Heavy-hitter feed, batched: an O(1) array accumulate here, merged
    // into the space-saving summary when the run drains. Per-read summary
    // updates would cost an 8-entry scan on the hottest path in the model
    // (the obs ablation's <3 % wall budget).
    if (cfg_.obs != nullptr) {
      if (pending_block_bytes_[b] == 0) dirty_blocks_.push_back(b);
      pending_block_bytes_[b] += cfg_.block_bytes;
    }

    const std::vector<std::uint32_t>& reps = blocks_[b];
    if (cfg_.peer_cache) {
      // Own host holds the block: instant local hit, no flow, no wire.
      if (host_pos_[dst].count(b) != 0) {
        cache_touch(dst, b);
        ++peer_local_hits_;
        ++done_;
        bytes_ += cfg_.block_bytes;
        sim_.post_at(sim_.now(), [this, reader] { start_read(reader); });
        return;
      }
      // A cache holder at a strictly nearer tier than ANY replica serves
      // the block instead — the directory hit replaces the disk-backed
      // replica flow with a cache-backed one.
      PathTier best_rep = PathTier::kCrossRack;
      for (std::uint32_t h : reps) best_rep = std::min(best_rep, topo_.tier(h, dst));
      std::uint32_t holder = 0;
      PathTier best_hold = PathTier::kCrossRack;
      bool have_holder = false;
      for (std::uint32_t h : holders_[b]) {
        const PathTier t = topo_.tier(h, dst);
        if (!have_holder || t < best_hold) {
          holder = h;
          best_hold = t;
          have_holder = true;
        }
      }
      if (have_holder && best_hold < best_rep) {
        ++peer_fetches_;
        Flow f{reader, holder, dst, best_hold,
               static_cast<double>(cfg_.block_bytes), b};
        link_delta(f, +1);
        host_inflight_[holder] += cfg_.block_bytes;
        flows_.push_back(f);
        return;
      }
      ++disk_reads_;
    }
    std::vector<ReplicaSelector::Candidate> cands;
    cands.reserve(reps.size());
    for (std::uint32_t h : reps) {
      cands.push_back({&host_names_[h], topo_.tier(h, dst)});
    }
    const std::uint32_t src = reps[selector_.choose(sim_.now(), cands)];

    Flow f{reader, src, dst, topo_.tier(src, dst),
           static_cast<double>(cfg_.block_bytes), b};
    link_delta(f, +1);
    host_inflight_[src] += cfg_.block_bytes;
    flows_.push_back(f);
  }

  // --- peer-cache LRU block sets (cfg_.peer_cache only) ---
  void cache_touch(std::uint32_t host, std::uint64_t b) {
    auto it = host_pos_[host].find(b);
    host_lru_[host].splice(host_lru_[host].end(), host_lru_[host], it->second);
  }

  void cache_insert(std::uint32_t host, std::uint64_t b) {
    if (auto it = host_pos_[host].find(b); it != host_pos_[host].end()) {
      host_lru_[host].splice(host_lru_[host].end(), host_lru_[host], it->second);
      return;
    }
    host_pos_[host][b] = host_lru_[host].insert(host_lru_[host].end(), b);
    std::vector<std::uint32_t>& hs = holders_[b];
    if (std::find(hs.begin(), hs.end(), host) == hs.end()) hs.push_back(host);
    if (host_lru_[host].size() > cfg_.peer_cache_blocks) {
      const std::uint64_t victim = host_lru_[host].front();
      host_lru_[host].pop_front();
      host_pos_[host].erase(victim);
      // Eviction unpublishes: the copyset never routes at bytes that left.
      std::vector<std::uint32_t>& vh = holders_[victim];
      vh.erase(std::remove(vh.begin(), vh.end(), host), vh.end());
    }
  }

  void link_delta(const Flow& f, int d) {
    host_active_[f.src] += d;
    if (f.tier == PathTier::kSameHost) {
      shortcut_n_[f.src] += d;
      return;
    }
    serve_n_[f.src] += d;
    nic_n_[f.src] += d;
    if (f.tier == PathTier::kCrossRack) {
      up_n_[topo_.rack_of(f.src)] += d;
      down_n_[topo_.rack_of(f.dst)] += d;
    }
  }

  // Fair-share rate for one flow: min over the links on its path of
  // capacity / flows-on-link, in bytes per second.
  double rate_of(const Flow& f) const {
    auto share = [](double gbps, std::uint32_t n) {
      return gbps * 1e9 / 8.0 / static_cast<double>(n);
    };
    if (f.tier == PathTier::kSameHost) {
      return share(kShortcutGbps, shortcut_n_[f.src]);
    }
    double r = share(kServeGbps, serve_n_[f.src]);
    r = std::min(r, share(kHostLinkGbps, nic_n_[f.src]));
    if (f.tier == PathTier::kCrossRack) {
      const double up_gbps = kUplinkGbps / std::max(1.0, cfg_.topo.oversubscription);
      r = std::min(r, share(up_gbps, up_n_[topo_.rack_of(f.src)]));
      r = std::min(r, share(up_gbps, down_n_[topo_.rack_of(f.dst)]));
    }
    return r;
  }

  void step() {
    ++epochs_;
    if (sim_.now() > cfg_.max_sim_time) {
      throw sim::SimError("flowsim exceeded max_sim_time with " +
                          std::to_string(cfg_.reads - done_) + " reads left");
    }
    const double dt = static_cast<double>(kEpoch) / 1e9;
    // Rates are computed against the epoch-start link population, then all
    // flows advance together (simultaneous fair-share step).
    rates_.resize(flows_.size());
    for (std::size_t i = 0; i < flows_.size(); ++i) rates_[i] = rate_of(flows_[i]);
    for (std::size_t i = 0; i < flows_.size();) {
      Flow& f = flows_[i];
      const double progress = rates_[i] * dt;
      if (f.remaining <= progress) {
        complete(f);
        rates_[i] = rates_.back();
        rates_.pop_back();
        flows_[i] = flows_.back();
        flows_.pop_back();
      } else {
        f.remaining -= progress;
        ++i;
      }
    }
    if (done_ < cfg_.reads) sim_.post(kEpoch, [this] { step(); });
  }

  void complete(const Flow& f) {
    ++done_;
    bytes_ += cfg_.block_bytes;
    if (f.tier == PathTier::kCrossRack) {
      cross_rack_bytes_ += cfg_.block_bytes;
      rack_up_bytes_[topo_.rack_of(f.src)] += cfg_.block_bytes;
    }
    link_delta(f, -1);
    host_inflight_[f.src] -= cfg_.block_bytes;
    if (cfg_.peer_cache) cache_insert(f.dst, f.block);
    // Completion piggybacks the serving daemon's load signal (zero wire
    // cost — see docs/TOPOLOGY.md §feedback).
    selector_.report(sim_.now(), host_names_[f.src],
                     DaemonLoad{host_active_[f.src], host_inflight_[f.src], false});
    const std::uint32_t reader = f.reader;
    // The reader's next read goes through the event queue: a million-read
    // run is a million event-queue dispatches.
    sim_.post_at(sim_.now(), [this, reader] { start_read(reader); });
  }

  FlowSimConfig cfg_;
  Topology topo_;
  ReplicaSelector selector_;
  sim::Rng rng_;
  sim::Simulation sim_;

  std::vector<std::string> host_names_;
  std::vector<std::vector<std::uint32_t>> blocks_;  // block -> replica hosts
  std::vector<Flow> flows_;
  std::vector<double> rates_;

  // Per-link active-flow counts (fair-share denominators).
  std::vector<std::uint32_t> shortcut_n_, serve_n_, nic_n_, up_n_, down_n_;
  // Per-host serving load (the feedback signal).
  std::vector<std::uint64_t> host_active_, host_inflight_;

  std::uint64_t issued_ = 0, done_ = 0, bytes_ = 0, cross_rack_bytes_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t peer_local_hits_ = 0, peer_fetches_ = 0, disk_reads_ = 0;

  // Peer-cache approximation state (sized only when cfg_.peer_cache).
  std::vector<std::list<std::uint64_t>> host_lru_;  // front = LRU victim
  std::vector<std::map<std::uint64_t, std::list<std::uint64_t>::iterator>> host_pos_;
  std::vector<std::vector<std::uint32_t>> holders_;  // block -> holder hosts

  // Observability source state: cumulative per-rack uplink bytes plus the
  // previous-scrape snapshots the delta sources diff against.
  std::vector<std::uint64_t> rack_up_bytes_, prev_rack_up_;
  // Batched heavy-hitter feed (drained by the obs source every tick).
  std::vector<std::uint64_t> pending_block_bytes_;
  std::vector<std::uint64_t> dirty_blocks_;
  std::uint64_t prev_cross_ = 0;
};

}  // namespace

FlowSimResult run_flowsim(const FlowSimConfig& cfg) {
  if (cfg.topo.racks == 0 || cfg.topo.hosts_per_rack == 0 ||
      cfg.topo.vms_per_host == 0 || cfg.blocks == 0) {
    throw std::invalid_argument("flowsim: empty topology");
  }
  return FlowSim(cfg).run();
}

}  // namespace vread::cluster
