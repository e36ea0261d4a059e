#include "cluster/route.h"

namespace vread::cluster {

const char* route_policy_name(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kStatic:
      return "static";
    case RoutePolicy::kRandom:
      return "random";
    default:
      return "aware";
  }
}

bool parse_route_policy(const std::string& s, RoutePolicy& out) {
  if (s == "static") {
    out = RoutePolicy::kStatic;
  } else if (s == "random") {
    out = RoutePolicy::kRandom;
  } else if (s == "aware" || s == "replica-aware") {
    out = RoutePolicy::kReplicaAware;
  } else {
    return false;
  }
  return true;
}

void ReplicaSelector::load_of(sim::SimTime now, const std::string& dn,
                              bool& overloaded, std::uint64_t& score) const {
  overloaded = false;
  score = 0;
  auto it = feedback_.find(dn);
  if (it == feedback_.end()) return;
  const Feedback& fb = it->second;
  if (now - fb.at > kFeedbackTtl) return;  // stale: treat as no signal
  score = fb.load.queue_depth + fb.load.inflight_bytes / kBytesPerLoadUnit;
  overloaded = fb.load.overloaded || fb.load.queue_depth >= kOverloadQueue;
}

std::size_t ReplicaSelector::choose(sim::SimTime now,
                                    const std::vector<Candidate>& candidates) {
  std::size_t pick = 0;
  last_avoided_ = false;
  if (candidates.size() > 1) {
    switch (cfg_.policy) {
      case RoutePolicy::kStatic: {
        // Same-host replica if any, else pipeline order — byte-identical
        // to the pre-topology DfsClient::choose_replica.
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          if (candidates[i].tier == PathTier::kSameHost) {
            pick = i;
            break;
          }
        }
        break;
      }
      case RoutePolicy::kRandom: {
        pick = static_cast<std::size_t>(rng_.uniform(0, candidates.size() - 1));
        break;
      }
      case RoutePolicy::kReplicaAware: {
        // Rank by (overloaded, tier, load score); ties within the winning
        // rank split uniformly so equal-cost replicas share the work. An
        // overloaded daemon loses to ANY healthy replica, even one a tier
        // further away — it is shedding requests, so a longer path that
        // answers beats a short one that doesn't.
        bool best_over = true;
        PathTier best_tier = PathTier::kCrossRack;
        std::uint64_t best_score = ~0ULL;
        std::vector<std::size_t> best;
        bool any_overloaded = false;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          bool over = false;
          std::uint64_t score = 0;
          load_of(now, *candidates[i].id, over, score);
          any_overloaded |= over;
          const bool better =
              (over != best_over)
                  ? !over
                  : (candidates[i].tier != best_tier ? candidates[i].tier < best_tier
                                                     : score < best_score);
          if (better) {
            best_over = over;
            best_tier = candidates[i].tier;
            best_score = score;
            best.clear();
          }
          if (over == best_over && candidates[i].tier == best_tier &&
              score == best_score) {
            best.push_back(i);
          }
        }
        pick = best[best.size() == 1
                        ? 0
                        : static_cast<std::size_t>(rng_.uniform(0, best.size() - 1))];
        if (any_overloaded && !best_over) {
          ++overload_avoided_;
          last_avoided_ = true;
        }
        break;
      }
    }
  }
  ++chosen_[static_cast<int>(candidates[pick].tier)];
  ++choices_;
  const int tier = static_cast<int>(candidates[pick].tier);
  if (flight_) {
    // Sampled, not exhaustive: at cluster scale every choice would churn
    // the ring into noise (and with hundreds of interleaved readers the
    // pick tier flips nearly every call, so "on tier change" degenerates
    // to "always"). Overload avoidances are the choices a post-mortem
    // needs; the every-256th heartbeat proves liveness and tracks the
    // prevailing tier.
    if (last_avoided_ || (choices_ & 0xFF) == 0) {
      flight_->record(now, obs::FlightEventKind::kRouteChoice,
                      *candidates[pick].id,
                      last_avoided_ ? "overload-avoided" : tier_name(candidates[pick].tier),
                      static_cast<std::uint64_t>(tier), choices_);
    }
  }
  last_tier_ = tier;
  return pick;
}

void ReplicaSelector::report(sim::SimTime now, const std::string& dn, DaemonLoad load) {
  feedback_[dn] = Feedback{load, now};
  ++feedback_reports_;
}

void ReplicaSelector::report_overload(sim::SimTime now, const std::string& dn) {
  Feedback& fb = feedback_[dn];
  fb.load.overloaded = true;
  fb.at = now;
  ++feedback_reports_;
}

}  // namespace vread::cluster
