// Cluster-wide cooperative block cache: the owner directory (DESIGN.md §15).
//
// Each daemon's BlockCache is private, so a block hot in host A's cache is
// re-read from disk on every other host that serves it — and disk is where
// the tail lives. The peer tier turns those private caches into one
// cooperative pool: a (datanode, block)-sharded directory records which
// daemons hold cached ranges of which blocks (the block's *copyset*, after
// the Pilevisor DSM's per-page copyset), and a daemon that misses locally
// consults it before touching hw::Disk. On a directory hit the range is
// fetched from the peer daemon's cache over the existing RDMA/TCP peer
// channel — one same-rack hop instead of a device read.
//
// Coherence is epoch-based, three layers deep (the write-once HDFS block
// contract keeps all three cheap). A block's effective epoch is the sum of
// a per-datanode base (bumped by datanode-wide invalidation, with memory
// even for blocks that have no directory record at bump time) and a
// per-block delta (bumped by single-block invalidation, which leaves a
// holder-less tombstone when no record exists) — so an invalidation can
// never be forgotten just because the record was erased or never created,
// and an in-flight publish snapshotted before the bump is always refused.
//   1. invalidation (vRead_update / unregister / migration) bumps the
//      (datanode, block) epoch synchronously — the linearization point —
//      and notifies every copyset member asynchronously (each notification
//      pays a control-message wire hop and can be LOST under the
//      core.peercache.invalidate_lost fault);
//   2. lookups filter holders whose publish epoch is behind the current
//      one, so a holder whose notification was lost is simply never
//      routed to again;
//   3. a fetch reply carries the holder's recorded publish epoch and the
//      requester rejects any mismatch against the directory's current
//      epoch (vread_peercache_stale_rejects_total) — the backstop for a
//      directory that returned a stale holder (core.peercache.stale_peer).
// A fetched range is republished only when the epoch observed at lookup
// time is still current (publish() with an expected epoch), so a racing
// invalidation can never be overwritten by in-flight stale bytes.
//
// The directory itself is passive bookkeeping plus modeled wire costs:
// shard ownership maps (datanode, block) onto the attached daemons, a
// lookup from a non-owner pays a control round-trip to the shard owner,
// and publishes ride the existing fill-completion traffic for free (the
// same piggyback argument as the routing load signal). The simulator is
// single-threaded, so no locking — determinism comes from the event queue.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/status.h"
#include "metrics/registry.h"
#include "sim/simulation.h"

namespace vread::core {

class VReadDaemon;

// Peer-tier tuning, embedded in DaemonConfig (every daemon of a cluster
// shares one directory; the knobs ride the daemon config so Validate()
// can cross-check them against the cache they serve from).
struct PeerCacheConfig {
  // Master switch. Off by default: with the tier disabled no directory is
  // consulted and every existing run stays bit-identical.
  bool enabled = false;
};

// The shared owner directory. One instance per cluster, created by the
// cluster builder when DaemonConfig::peer_cache.enabled and handed to
// every daemon; daemons attach() in creation order, which fixes the shard
// ownership map.
class PeerCacheDirectory {
 public:
  explicit PeerCacheDirectory(sim::Simulation& sim);
  PeerCacheDirectory(const PeerCacheDirectory&) = delete;
  PeerCacheDirectory& operator=(const PeerCacheDirectory&) = delete;

  // host name -> rack id (or -1 when unracked); set by the cluster builder
  // so same-rack holders can be preferred without a topology dependency.
  void set_rack_of(std::function<int(const std::string& host)> fn) {
    rack_of_ = std::move(fn);
  }

  // Registers a daemon as a shard owner (attach order = shard index).
  void attach(VReadDaemon* daemon);

  // One live (or, under the stale_peer fault, stale) copyset member.
  struct Holder {
    VReadDaemon* daemon = nullptr;
    std::uint64_t epoch = 0;  // the holder's publish epoch
  };
  struct LookupResult {
    std::uint64_t epoch = 0;  // current (datanode, block) epoch
    std::vector<Holder> holders;
  };

  // Directory lookup from `requester`'s serving thread. Pays a control
  // round-trip to the shard owner's host (free when the requester owns
  // the shard). Holders are filtered to the current epoch — except when
  // the core.peercache.stale_peer fault fires, which models a copyset
  // update lost inside the directory: stale holders are returned and the
  // requester's fetch-time epoch check must catch them.
  sim::Task lookup(VReadDaemon* requester, const std::string& dn,
                   const std::string& block, LookupResult& out);

  // Records `holder` in (dn, block)'s copyset at the current epoch.
  // Publishes are free on the wire: they piggyback on the fill completion
  // the holder just served, the same way routing load signals ride read
  // completions. Returns the epoch recorded.
  std::uint64_t publish(VReadDaemon* holder, const std::string& dn,
                        const std::string& block);
  // Publish gated on an epoch observed earlier (at lookup / dispatch
  // time): refused — and not recorded — when an invalidation advanced the
  // epoch since, so in-flight stale bytes are never cached or
  // re-advertised. A missing record is NOT an acceptance shortcut: the
  // expected epoch is compared against the block's effective epoch
  // (datanode base + block delta), which outlives record erasure.
  bool publish_if_current(VReadDaemon* holder, const std::string& dn,
                          const std::string& block, std::uint64_t expected_epoch);

  // Drops `holder` from (dn, block)'s copyset (cache eviction observer).
  // Erases the record only when it carries no invalidation history
  // (delta 0) — a lossless erase, since epoch() reports the datanode base
  // either way; invalidated records stay as tombstones.
  void unpublish(VReadDaemon* holder, const std::string& dn, const std::string& block);

  // Copyset invalidation: bumps the epoch NOW (the linearization point —
  // later lookups filter every pre-bump publish) and spawns one async
  // notification per copyset member, each paying a control hop before the
  // member drops its cached ranges. A notification can be lost
  // (core.peercache.invalidate_lost): the member keeps its bytes but the
  // epoch filter keeps it unreachable. `origin` anchors the notification
  // wire hops (the daemon whose mount refreshed / unregistered).
  // Both bumps have memory even when no record exists: invalidate()
  // creates a holder-less tombstone, invalidate_datanode() advances the
  // per-datanode base shared by every (dn, *) block — so a publish racing
  // record erasure can never slip pre-invalidation bytes back in.
  void invalidate(VReadDaemon* origin, const std::string& dn, const std::string& block);
  void invalidate_datanode(VReadDaemon* origin, const std::string& dn);

  // Current epoch of (dn, block); 1 if never invalidated.
  std::uint64_t epoch(const std::string& dn, const std::string& block) const;

  // True when both daemons' hosts land in the same rack (or racks are not
  // configured — a flat LAN is one rack for ranking purposes).
  bool same_rack(VReadDaemon* a, VReadDaemon* b) const;

  // Counters (also exported as vread_peercache_* registry series).
  std::uint64_t invalidations() const { return invalidations_.value(); }
  std::uint64_t invalidations_lost() const { return invalidations_lost_.value(); }
  std::uint64_t stale_publish_refusals() const { return stale_publish_.value(); }

 private:
  struct BlockState {
    // Single-block invalidations on top of the datanode base; the block's
    // effective epoch is base(dn) + delta. Kept as a delta so erasing a
    // never-invalidated record (delta 0) changes nothing epoch() reports.
    std::uint64_t delta = 0;
    // Copyset: (holder, publish effective epoch) in publish order. Members
    // behind the effective epoch are stale (lookups skip them); they are
    // pruned by unpublish / re-publish. Publish order — not a pointer-keyed
    // map — because holder iteration order feeds fetch-candidate ranking
    // and notification spawning, and pointer order would vary run to run.
    std::vector<std::pair<VReadDaemon*, std::uint64_t>> holders;
    std::vector<std::pair<VReadDaemon*, std::uint64_t>>::iterator find(
        VReadDaemon* d) {
      for (auto it = holders.begin(); it != holders.end(); ++it) {
        if (it->first == d) return it;
      }
      return holders.end();
    }
  };
  using Key = std::pair<std::string, std::string>;  // (datanode, block)

  VReadDaemon* shard_owner(const Key& key) const;
  sim::Task notify_holder(VReadDaemon* origin, VReadDaemon* holder, std::string dn,
                          std::string block);
  // Counts the invalidation and spawns the copyset notifications (the
  // epoch bump itself — delta or base — is the caller's).
  void revoke_holders(VReadDaemon* origin, const Key& key, BlockState& st);
  std::uint64_t base(const std::string& dn) const;

  sim::Simulation& sim_;
  std::vector<VReadDaemon*> daemons_;  // attach order = shard map
  std::map<Key, BlockState> blocks_;
  // Per-datanode epoch base (absent = 1): datanode-wide invalidation
  // advances it, moving the effective epoch of every (dn, *) block —
  // including blocks whose record was erased or never created.
  std::map<std::string, std::uint64_t> dn_base_;
  std::function<int(const std::string&)> rack_of_;

  metrics::MetricGroup metrics_;
  metrics::Counter& publishes_;
  metrics::Counter& invalidations_;
  metrics::Counter& invalidations_lost_;
  metrics::Counter& stale_publish_;
  metrics::Histogram& copyset_size_;
};

}  // namespace vread::core
