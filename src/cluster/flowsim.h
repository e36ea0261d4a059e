// Epoch-based flow-level cluster model (docs/TOPOLOGY.md §flowsim).
//
// The detailed simulator prices every copy, syscall and wire hop — perfect
// for a handful of hosts, hopeless for five hundred. FlowSim keeps the
// pieces that decide rack-scale behavior (replica choice, link sharing,
// load feedback) and drops per-packet fidelity: each read is one flow;
// every epoch, each link divides its capacity evenly among the flows
// crossing it and every flow progresses at the minimum share along its
// path. Readers are closed-loop (one outstanding read each), and each
// completion is posted through the sim::Simulation event queue — a
// 500-host, million-read sweep pushes >1M events through the engine and
// still finishes in a couple of wall-clock seconds.
//
// Replica selection is the SAME ReplicaSelector the detailed DfsClient
// uses, so policy semantics cannot drift between the two models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/route.h"
#include "cluster/topology.h"
#include "obs/timeseries.h"
#include "sim/simulation.h"

namespace vread::cluster {

struct FlowSimConfig {
  TopologyConfig topo{};
  RouteConfig route{};

  std::uint64_t blocks = 1024;    // distinct blocks in the working set
  std::uint64_t block_bytes = 8ULL << 20;
  std::uint64_t reads = 100000;  // total reads issued across all readers

  sim::SimTime max_sim_time = sim::sec(86400);  // safety net: fail loudly

  // Cooperative peer cache (DESIGN.md §15), flow-level approximation:
  // every completed read leaves the block in the reader host's LRU block
  // set. A later read first checks its own host (instant local hit, no
  // flow), then serves from the nearest cache holder when that holder sits
  // at a strictly nearer tier than the best replica — trading a disk-backed
  // replica flow for a cache-backed same-rack one, which is exactly the
  // wire-topology effect the detailed model prices per byte.
  bool peer_cache = false;
  std::uint64_t peer_cache_blocks = 64;  // per-host LRU capacity, in blocks

  // Observability plane (DESIGN.md §14). When set, the recorder is
  // attached to the model's private simulation as a dispatch-loop probe
  // and fed per-rack uplink byte / active-flow sources plus block-level
  // heavy-hitter accesses; the bit-identity guard proves the attachment
  // leaves the dispatch sequence untouched. Borrowed, not owned.
  obs::TimeSeriesRecorder* obs = nullptr;
  // Flight recorder handed to the shared ReplicaSelector for sampled
  // route-choice events. Borrowed, not owned.
  obs::FlightRecorder* flight = nullptr;
  // Chain an FNV-1a digest over the dispatched (time, seq) sequence and
  // report it in FlowSimResult::dispatch_digest (the obs ablation's
  // perturbation witness).
  bool dispatch_digest = false;
};

struct FlowSimResult {
  double sim_seconds = 0;      // simulated completion time
  double aggregate_mb_s = 0;   // total payload bytes / sim_seconds
  std::uint64_t reads = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t chosen_same_host = 0;
  std::uint64_t chosen_same_rack = 0;
  std::uint64_t chosen_cross_rack = 0;
  std::uint64_t overload_avoided = 0;
  std::uint64_t feedback_reports = 0;
  std::uint64_t epochs = 0;
  std::uint64_t events_dispatched = 0;  // sim-engine events the run consumed
  std::uint64_t dispatch_digest = 0;    // FNV (time,seq) chain (0 = off)
  // Peer-cache approximation (all zero when cfg.peer_cache is off).
  std::uint64_t peer_local_hits = 0;  // reader's own host held the block
  std::uint64_t peer_fetches = 0;     // served from a nearer cache holder
  std::uint64_t disk_reads = 0;       // served from a replica (disk-backed)
};

// Runs the model to completion (all reads served). Deterministic from the
// config alone. Throws sim::SimError if max_sim_time elapses first.
FlowSimResult run_flowsim(const FlowSimConfig& cfg);

}  // namespace vread::cluster
