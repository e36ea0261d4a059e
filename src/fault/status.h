// vread::Status — the typed result of every vRead read-path operation.
//
// The paper's degradation argument (Algorithms 1-2, §3.2, §6) hinges on
// the client always being able to tell "the shortcut failed, fall back"
// from "the bytes arrived". Raw negative integers threaded through
// out-params made that distinction easy to drop on the floor; Status makes
// it explicit and extensible: a code, a derived category, an optional
// human-readable detail, and the two predicates the recovery machinery
// keys on — is_retryable() (transient transport trouble; the same request
// may succeed shortly) and is_stale() (a descriptor or snapshot went
// stale; an immediate re-open is the right move).
//
// The numeric kVReadErr* values remain ONLY as the wire encoding of
// virt::ShmResponse::status (>= 0 means success/byte-count); to_wire() /
// from_wire() convert at the ring boundary.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "sim/time.h"

namespace vread {

// Wire encoding for virt::ShmResponse::status (negative = failure;
// non-negative = success / bytes delivered). Do not use these in APIs —
// pass vread::Status instead.
constexpr std::int64_t kVReadErrNoDatanode = -1;  // datanode unknown to the daemon
constexpr std::int64_t kVReadErrNoBlock = -2;     // block not visible in the mount
constexpr std::int64_t kVReadErrBadFd = -3;       // descriptor unknown (restart?)
constexpr std::int64_t kVReadErrRange = -4;       // offset beyond snapshot inode
constexpr std::int64_t kVReadErrTimeout = -5;     // shm request timed out
constexpr std::int64_t kVReadErrPeerDown = -6;    // remote peer daemon unreachable
constexpr std::int64_t kVReadErrCorrupt = -7;     // response failed validation
constexpr std::int64_t kVReadErrOverloaded = -8;  // admission control shed the request
constexpr std::int64_t kVReadErrConfig = -9;      // daemon rejected its configuration
constexpr std::int64_t kVReadErrCancelled = -10;  // hedged leg cancelled by the winner

enum class StatusCode : std::int8_t {
  kOk = 0,
  kNoDatanode,  // the daemon has no registry entry for the datanode
  kNoBlock,     // block file not visible in the (possibly stale) mount
  kBadFd,       // descriptor unknown — daemon restarted or client bug
  kRange,       // read past the snapshot inode (stale mount)
  kTimeout,     // the shm-ring request timed out
  kPeerDown,    // the remote peer daemon did not answer
  kCorrupt,     // the response failed validation on arrival
  kOverloaded,  // the daemon's QoS admission control shed the request
  kConfig,      // inconsistent configuration (DaemonConfig::Validate)
  kCancelled,   // the client cancelled this (losing hedge) leg on purpose
  kUnknown,     // unmapped wire value (forward compatibility)
};

enum class StatusCategory : std::int8_t {
  kOk = 0,
  kNotFound,   // registry/namespace miss: fall back, re-probe later
  kStale,      // descriptor or snapshot went stale: re-open immediately
  kTransport,  // transient plumbing trouble: bounded retry, then fall back
  kInternal,   // anything else
};

class Status {
 public:
  Status() = default;  // ok
  explicit Status(StatusCode code, std::string detail = "")
      : code_(code), detail_(std::move(detail)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& detail() const { return detail_; }

  StatusCategory category() const {
    switch (code_) {
      case StatusCode::kOk:
        return StatusCategory::kOk;
      case StatusCode::kNoDatanode:
      case StatusCode::kNoBlock:
        return StatusCategory::kNotFound;
      case StatusCode::kBadFd:
      case StatusCode::kRange:
        return StatusCategory::kStale;
      case StatusCode::kTimeout:
      case StatusCode::kPeerDown:
      case StatusCode::kCorrupt:
      case StatusCode::kOverloaded:
        // Overload is transient by construction: the daemon shed the
        // request instead of queueing it, so a backed-off retry is exactly
        // what the admission controller wants the client to do.
        return StatusCategory::kTransport;
      case StatusCode::kCancelled:
        // Deliberate: the winner already has the bytes. Not retryable, not
        // stale — the losing leg must end quietly, with no fallback.
      case StatusCode::kConfig:
      case StatusCode::kUnknown:
        return StatusCategory::kInternal;
    }
    return StatusCategory::kInternal;
  }

  // Transient: retrying the same request (bounded, with backoff) is
  // worthwhile before degrading to the vanilla socket path.
  bool is_retryable() const { return category() == StatusCategory::kTransport; }

  // Stale descriptor/snapshot: dropping the descriptor and re-opening on
  // the next access is expected to succeed (daemon restart, mount moved
  // past the snapshot). Fallback serves the current read; no cooldown.
  bool is_stale() const { return category() == StatusCategory::kStale; }

  std::string to_string() const {
    std::string s = code_name(code_);
    if (!detail_.empty()) s += ": " + detail_;
    return s;
  }

  // --- wire encoding (virt::ShmResponse::status only) ---
  std::int64_t to_wire() const {
    switch (code_) {
      case StatusCode::kOk: return 0;
      case StatusCode::kNoDatanode: return kVReadErrNoDatanode;
      case StatusCode::kNoBlock: return kVReadErrNoBlock;
      case StatusCode::kBadFd: return kVReadErrBadFd;
      case StatusCode::kRange: return kVReadErrRange;
      case StatusCode::kTimeout: return kVReadErrTimeout;
      case StatusCode::kPeerDown: return kVReadErrPeerDown;
      case StatusCode::kCorrupt: return kVReadErrCorrupt;
      case StatusCode::kOverloaded: return kVReadErrOverloaded;
      case StatusCode::kConfig: return kVReadErrConfig;
      case StatusCode::kCancelled: return kVReadErrCancelled;
      case StatusCode::kUnknown: return kVReadErrNoDatanode;
    }
    return kVReadErrNoDatanode;
  }

  static Status from_wire(std::int64_t wire, std::string detail = "") {
    if (wire >= 0) return Status();
    StatusCode code = StatusCode::kUnknown;
    switch (wire) {
      case kVReadErrNoDatanode: code = StatusCode::kNoDatanode; break;
      case kVReadErrNoBlock: code = StatusCode::kNoBlock; break;
      case kVReadErrBadFd: code = StatusCode::kBadFd; break;
      case kVReadErrRange: code = StatusCode::kRange; break;
      case kVReadErrTimeout: code = StatusCode::kTimeout; break;
      case kVReadErrPeerDown: code = StatusCode::kPeerDown; break;
      case kVReadErrCorrupt: code = StatusCode::kCorrupt; break;
      case kVReadErrOverloaded: code = StatusCode::kOverloaded; break;
      case kVReadErrConfig: code = StatusCode::kConfig; break;
      case kVReadErrCancelled: code = StatusCode::kCancelled; break;
      default: break;
    }
    return Status(code, std::move(detail));
  }

  static const char* code_name(StatusCode c) {
    switch (c) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kNoDatanode: return "NO_DATANODE";
      case StatusCode::kNoBlock: return "NO_BLOCK";
      case StatusCode::kBadFd: return "BAD_FD";
      case StatusCode::kRange: return "RANGE";
      case StatusCode::kTimeout: return "TIMEOUT";
      case StatusCode::kPeerDown: return "PEER_DOWN";
      case StatusCode::kCorrupt: return "CORRUPT";
      case StatusCode::kOverloaded: return "OVERLOADED";
      case StatusCode::kConfig: return "CONFIG";
      case StatusCode::kCancelled: return "CANCELLED";
      case StatusCode::kUnknown: return "UNKNOWN";
    }
    return "UNKNOWN";
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string detail_;
};

// Bounded-retry / exponential-backoff policy shared by the guest library
// (shm call retries) and the daemon (daemon-to-daemon control retries).
inline constexpr int kRetryAttempts = 3;                     // total tries
inline constexpr sim::SimTime kRetryBackoff = sim::us(200);  // before the 2nd; doubles

// Backoff before try `next_attempt` (2-based: the delay inserted after
// failure number next_attempt-1). Exponential, capped at 2^20x base.
constexpr sim::SimTime retry_backoff_before(int next_attempt) {
  int shift = next_attempt - 2;
  if (shift < 0) shift = 0;
  if (shift > 20) shift = 20;
  return kRetryBackoff << shift;
}

}  // namespace vread
