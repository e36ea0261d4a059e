// Deterministic per-read tracing for the simulated vRead stack.
//
// A `Ctx` identifies one in-flight HDFS read (`read` id) and the span it is
// currently inside (`parent`). The context is threaded *explicitly* through
// the read path — DfsInputStream -> BlockReader -> shm ring slot ->
// VReadDaemon -> peer daemon, or the vanilla socket path through the
// datanode — because coroutine interleaving makes any implicit thread-local
// context unsound in the simulator.
//
// Design rules (DESIGN.md §8):
//  - One idiom: instrumentation sites time work with a `Scope` (below), never
//    by hand; only the CPU scheduler, whose burst begin times come from the
//    burst itself, calls `record()` directly.
//  - Zero overhead when disabled: every hook checks `enabled()` first and a
//    disabled tracer never allocates; `Ctx{}` propagates for free. Tracing
//    never co_awaits, never charges cycles and never branches simulation
//    logic, so enabling it cannot change simulated results.
//  - Spans are stamped with sim::SimTime (integer ns) and byte counts; the
//    span list is append-only and its order is deterministic.
//  - Thread ids come from metrics::CycleAccounting. Non-thread actors (LAN
//    wire, disks, vCPU run queues) get synthetic "track" ids at kTrackBase+
//    so they can overlap freely without breaking per-thread nesting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace vread::trace {

// Index+1 into the tracer's span vector; 0 means "no span".
using SpanId = std::uint32_t;

enum class SpanKind : std::uint8_t {
  kRead,       // root: one per DfsInputStream block-range read
  kStage,      // pipeline stage (vread-open, socket-read, loop-read, ...)
  kCopy,       // one data copy; `bytes` = bytes moved (paper Fig. 2 arrows)
  kSyncWait,   // runnable-but-not-running: CPU run queue / vCPU mutex
  kCompute,    // CPU burst actually executing (named by CycleCategory)
  kTransport,  // bytes in flight on a wire (LAN hop, RDMA transfer)
  kDisk,       // physical disk service time incl. device queueing
  kRetry,      // instant: a retryable failure triggered another attempt
  kFallback,   // instant: degraded to a slower path (socket, TCP transport)
  kCoalesce,   // merged-fill machinery: waiter attach/wait + leader fan-out
};

const char* to_string(SpanKind kind);

// Per-read trace context, passed by value along the read path.
struct Ctx {
  std::uint32_t read = 0;  // 0 = untraced
  SpanId parent = 0;

  explicit operator bool() const { return read != 0; }
};

struct Span {
  std::uint32_t read = 0;  // owning read id (0 = background activity)
  SpanId parent = 0;
  SpanKind kind = SpanKind::kStage;
  const char* name = "";  // static string; never freed
  int tid = 0;            // accounting thread id, or a track id
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  std::uint64_t bytes = 0;
};

// A synthetic track ("lan-wire", "host1 disk", ...) named by the actor that
// owns it. Spans name it instead of a thread id; the tracer registers it the
// first time a span on it is pushed.
struct TrackName {
  std::string name;
  std::string group;  // the exporter's process for the track
};

class Tracer {
 public:
  // Synthetic ids handed out by track(); real thread ids stay below this.
  static constexpr int kTrackBase = 1'000'000;

  // Starts recording. `sim` supplies timestamps; previous spans are kept
  // (call clear() for a fresh run).
  void enable(sim::Simulation& sim) {
    sim_ = &sim;
    enabled_ = true;
  }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  void clear() {
    spans_.clear();
    tracks_.clear();
    next_read_ = 1;
  }

  // --- root read spans ---
  // Opens a root span for a new read on thread `tid`. Returns the context
  // the whole read path should carry ({} when disabled).
  Ctx begin_read(const char* name, int tid) {
    if (!enabled_) return {};
    std::uint32_t id = next_read_++;
    SpanId root = push(id, 0, SpanKind::kRead, name, tid, now(), now(), 0);
    return Ctx{id, root};
  }

  // Records a completed span with explicit timestamps (the scheduler emits
  // wait/compute spans retroactively when a burst finishes).
  void record(Ctx ctx, SpanKind kind, const char* name, int tid, sim::SimTime begin,
              sim::SimTime end, std::uint64_t bytes = 0) {
    if (!enabled_) return;
    push(ctx.read, ctx.parent, kind, name, tid, begin, end, bytes);
  }

  // Records a zero-duration marker (retry / fallback events).
  void instant(Ctx ctx, SpanKind kind, const char* name, int tid) {
    if (!enabled_) return;
    push(ctx.read, ctx.parent, kind, name, tid, now(), now(), 0);
  }

  // --- tracks ---
  // Returns a stable synthetic id for a non-thread actor ("lan-wire",
  // "host1 disk", ...). `group` places it under a process in the exporter.
  int track(const std::string& name, const std::string& group) {
    if (!enabled_) return kTrackBase;
    for (std::size_t i = 0; i < tracks_.size(); ++i)
      if (tracks_[i].name == name) return kTrackBase + static_cast<int>(i);
    tracks_.push_back(TrackName{name, group});
    return kTrackBase + static_cast<int>(tracks_.size()) - 1;
  }
  std::size_t track_count() const { return tracks_.size(); }
  bool is_track(int tid) const { return tid >= kTrackBase; }
  const std::string& track_name(int tid) const {
    return tracks_[static_cast<std::size_t>(tid - kTrackBase)].name;
  }
  const std::string& track_group(int tid) const {
    return tracks_[static_cast<std::size_t>(tid - kTrackBase)].group;
  }

  // --- inspection ---
  const std::vector<Span>& spans() const { return spans_; }
  // Total spans ever recorded: the "zero allocation" counter the tests use
  // to prove the disabled path never touches the tracer.
  std::uint64_t spans_recorded() const { return spans_.size(); }
  std::uint32_t reads_started() const { return next_read_ - 1; }

 private:
  friend class Scope;

  sim::SimTime now() const { return sim_->now(); }

  SpanId push(std::uint32_t read, SpanId parent, SpanKind kind, const char* name, int tid,
              sim::SimTime begin, sim::SimTime end, std::uint64_t bytes) {
    spans_.push_back(Span{read, parent, kind, name, tid, begin, end, bytes});
    return static_cast<SpanId>(spans_.size());
  }

  bool enabled_ = false;
  sim::Simulation* sim_ = nullptr;
  std::vector<Span> spans_;
  std::vector<TrackName> tracks_;
  std::uint32_t next_read_ = 1;
};

// Process-wide tracer, mirroring fault::registry(): benches and tests run
// one simulation per process, and instrumentation sites (the CPU scheduler,
// the shm ring) have no natural place to carry a tracer pointer.
Tracer& tracer();

// Where a span lands: a thread id, or a track registered when the span is
// pushed (the TrackName must outlive the span's scope). Implicit from either.
struct Lane {
  Lane(int t) : tid(t) {}
  Lane(std::uint32_t t) : tid(static_cast<int>(t)) {}  // an accounting ThreadId
  Lane(const TrackName& t) : track(&t) {}
  int tid = 0;
  const TrackName* track = nullptr;
};

// One span, timed by its own lifetime: the single instrumentation idiom
// (docs/TRACING.md "Adding a span"). It comes in two shapes:
//  - open (`read`, `open`): pushed when it opens, so work nested inside it
//    can name it as parent through ctx(); its end is stamped at close.
//  - after the fact (`after`, `copy`, `wait`): pushed only when it closes,
//    with the begin time taken at open. `wait` pushes nothing when no time
//    passed.
// A scope closes when it is destroyed, on every exit path, a throw
// included, with the byte count given at open or by set_bytes(). A scope
// opened while tracing is off is inert: one branch, nothing recorded; so is
// a copy of zero bytes (a FIN segment, a control message). A scope that
// closes while tracing is off, or because the simulation is tearing its
// frame down, records nothing.
class Scope {
 public:
  Scope() = default;  // inert
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (tr_ != nullptr) close();
  }

  // Root span of a new read on thread `tid`.
  static Scope read(const char* name, Lane tid) {
    return Scope(Shape::kOpen, {}, SpanKind::kRead, name, tid, 0);
  }
  // Span under ctx.parent on thread `tid`, pushed now.
  static Scope open(Ctx ctx, SpanKind kind, const char* name, Lane tid,
                    std::uint64_t bytes = 0) {
    return Scope(Shape::kOpen, ctx, kind, name, tid, bytes);
  }
  // Span under ctx.parent, pushed at close.
  static Scope after(Ctx ctx, SpanKind kind, const char* name, Lane lane,
                     std::uint64_t bytes = 0) {
    return Scope(Shape::kAfter, ctx, kind, name, lane, bytes);
  }
  // One data copy of `bytes`, pushed at close.
  static Scope copy(Ctx ctx, const char* name, Lane lane, std::uint64_t bytes) {
    return Scope(Shape::kAfter, ctx, SpanKind::kCopy, name, lane, bytes);
  }
  // Synchronization wait, pushed at close only if time passed.
  static Scope wait(Ctx ctx, const char* name, Lane lane) {
    return Scope(Shape::kWait, ctx, SpanKind::kSyncWait, name, lane, 0);
  }

  // Context for work nested under this span: an open span itself, else the
  // context the scope was opened with.
  Ctx ctx() const { return ctx_; }
  void set_bytes(std::uint64_t bytes) { bytes_ = bytes; }

 private:
  enum class Shape : std::uint8_t { kOpen, kAfter, kWait };

  Scope(Shape shape, Ctx ctx, SpanKind kind, const char* name, Lane lane,
        std::uint64_t bytes)
      : ctx_(ctx), kind_(kind), skip_empty_(shape == Shape::kWait), name_(name),
        lane_(lane), bytes_(bytes) {
    Tracer& tr = tracer();
    if (!tr.enabled() || (kind == SpanKind::kCopy && bytes == 0)) return;
    tr_ = &tr;
    begin_ = tr.now();
    if (shape != Shape::kOpen) return;
    if (kind == SpanKind::kRead) {
      ctx_ = tr.begin_read(name, lane.tid);
    } else {
      ctx_.parent = tr.push(ctx.read, ctx.parent, kind, name, lane.tid, begin_, begin_, 0);
    }
    open_ = ctx_.parent;
  }

  void close() {
    Tracer& tr = *tr_;
    if (!tr.enabled() || tr.sim_->shutting_down()) return;
    if (open_ != 0) {
      Span& s = tr.spans_[open_ - 1];
      s.end = tr.now();
      s.bytes = bytes_;
    } else if (!skip_empty_ || tr.now() != begin_) {
      const int tid = lane_.track ? tr.track(lane_.track->name, lane_.track->group) : lane_.tid;
      tr.push(ctx_.read, ctx_.parent, kind_, name_, tid, begin_, tr.now(), bytes_);
    }
  }

  Tracer* tr_ = nullptr;  // null: inert
  Ctx ctx_{};
  SpanId open_ = 0;  // the span an open scope pushed
  SpanKind kind_ = SpanKind::kStage;
  bool skip_empty_ = false;
  const char* name_ = "";
  Lane lane_ = 0;
  sim::SimTime begin_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace vread::trace
