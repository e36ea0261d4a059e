#include "trace/aggregate.h"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>

#include "metrics/table.h"

namespace vread::trace {

RunSummary aggregate(const Tracer& t) {
  RunSummary s;
  std::map<std::uint32_t, std::size_t> index;  // read id -> slot in s.reads
  for (const Span& sp : t.spans()) {
    if (sp.read == 0) continue;
    auto it = index.find(sp.read);
    if (it == index.end()) {
      it = index.emplace(sp.read, s.reads.size()).first;
      s.reads.push_back(ReadBreakdown{});
      s.reads.back().read = sp.read;
    }
    ReadBreakdown& r = s.reads[it->second];
    switch (sp.kind) {
      case SpanKind::kRead:
        r.name = sp.name;
        r.begin = sp.begin;
        r.end = sp.end;
        r.bytes += sp.bytes;
        break;
      case SpanKind::kCopy:
        r.copy_bytes += sp.bytes;
        r.copy_by_site[sp.name] += sp.bytes;
        break;
      case SpanKind::kSyncWait:
        r.sync_wait += sp.end - sp.begin;
        break;
      case SpanKind::kDisk:
        r.disk += sp.end - sp.begin;
        break;
      case SpanKind::kTransport:
        r.transport += sp.end - sp.begin;
        break;
      case SpanKind::kRetry:
        ++r.retries;
        break;
      case SpanKind::kFallback:
        ++r.fallbacks;
        break;
      case SpanKind::kStage:
      case SpanKind::kCompute:
      case SpanKind::kCoalesce:
        break;
    }
  }
  for (const ReadBreakdown& r : s.reads) {
    s.total.bytes += r.bytes;
    s.total.copy_bytes += r.copy_bytes;
    s.total.sync_wait += r.sync_wait;
    s.total.disk += r.disk;
    s.total.transport += r.transport;
    s.total.retries += r.retries;
    s.total.fallbacks += r.fallbacks;
    s.total.end += r.elapsed();  // total.elapsed() = sum of read times
    for (const auto& [site, bytes] : r.copy_by_site) s.total.copy_by_site[site] += bytes;
  }
  s.total.name = "TOTAL";
  return s;
}

namespace {

double ms(sim::SimTime t) { return sim::to_millis(t); }

std::vector<metrics::Cell> read_row(const std::string& label, const ReadBreakdown& r) {
  return {label,
          r.bytes,
          metrics::Cell(ms(r.elapsed()), 3),
          metrics::Cell(r.copies(), 2),
          metrics::Cell(ms(r.sync_wait), 3),
          metrics::Cell(ms(r.disk), 3),
          metrics::Cell(ms(r.transport), 3),
          r.retries,
          r.fallbacks};
}

}  // namespace

void print_read_table(std::ostream& os, const RunSummary& s, std::size_t max_rows) {
  os << "  per-read attribution (ms):\n";
  metrics::TablePrinter t({"read", "bytes", "elapsed", "copies", "syncwait", "disk",
                           "wire", "retries", "fb"});
  std::size_t shown = std::min(max_rows, s.reads.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const ReadBreakdown& r = s.reads[i];
    t.add_row(read_row(std::string(r.name) + "#" + std::to_string(r.read), r));
  }
  if (shown < s.reads.size()) {
    t.add_row({"... (" + std::to_string(s.reads.size() - shown) + " more reads)"});
  }
  t.add_row(read_row("TOTAL", s.total));
  t.print(os);
}

void print_copy_sites(std::ostream& os, const RunSummary& s) {
  os << "  copy sites (bytes moved; x = per delivered byte):\n";
  metrics::TablePrinter t({"site", "bytes", "per byte"});
  auto per_byte = [&s](std::uint64_t bytes) {
    double x = s.total.bytes == 0
                   ? 0.0
                   : static_cast<double>(bytes) / static_cast<double>(s.total.bytes);
    std::string cell = "x";
    cell += metrics::fmt(x, 2);
    return metrics::num(std::move(cell));
  };
  for (const auto& [site, bytes] : s.total.copy_by_site) {
    t.add_row({site, bytes, per_byte(bytes)});
  }
  t.add_row({"copy count", s.total.copy_bytes, per_byte(s.total.copy_bytes)});
  t.print(os);
}

std::map<std::string, sim::SimTime> sync_wait_by_group(const Tracer& t,
                                                       const metrics::CycleAccounting& acct) {
  std::map<std::string, sim::SimTime> waits;
  for (const Span& sp : t.spans()) {
    if (sp.kind != SpanKind::kSyncWait) continue;
    const std::string& group = t.is_track(sp.tid)
                                   ? t.track_group(sp.tid)
                                   : acct.thread_group(static_cast<metrics::ThreadId>(sp.tid));
    waits[group] += sp.end - sp.begin;
  }
  return waits;
}

void print_sync_wait_by_group(std::ostream& os,
                              const std::map<std::string, sim::SimTime>& waits,
                              sim::SimTime elapsed) {
  os << "  measured sync-wait by group (ms; window " << metrics::fmt(ms(elapsed), 1)
     << " ms):\n";
  metrics::TablePrinter t({"group", "wait ms", "of window"});
  for (const auto& [group, wait] : waits) {
    std::vector<metrics::Cell> row{group, metrics::Cell(ms(wait), 3)};
    if (elapsed > 0) {
      row.push_back(metrics::num(
          metrics::fmt(100.0 * static_cast<double>(wait) / static_cast<double>(elapsed),
                       1) +
          "%"));
    }
    t.add_row(std::move(row));
  }
  t.print(os);
}

}  // namespace vread::trace
