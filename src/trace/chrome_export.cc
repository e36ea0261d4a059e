#include "trace/chrome_export.h"

#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/export.h"

namespace vread::trace {
namespace {

using metrics::json_escape;

// Microseconds with ns precision, printed as a fixed 3-decimal literal.
void put_us(std::ostream& os, sim::SimTime ns) {
  os << (ns / 1000) << '.' << std::setw(3) << std::setfill('0') << (ns % 1000)
     << std::setfill(' ');
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& t,
                        const metrics::CycleAccounting& acct,
                        const std::function<void(std::ostream&)>& extra) {
  // Assign pids by first appearance of each group in the span stream so the
  // numbering is deterministic; remember each tid's display name.
  std::map<std::string, int> pid_of_group;
  std::vector<std::string> groups;                // index = pid - 1
  std::map<int, std::pair<int, std::string>> tids;  // tid -> (pid, name)
  auto pid_for = [&](const std::string& group) {
    auto it = pid_of_group.find(group);
    if (it != pid_of_group.end()) return it->second;
    groups.push_back(group);
    int pid = static_cast<int>(groups.size());
    pid_of_group.emplace(group, pid);
    return pid;
  };
  for (const Span& sp : t.spans()) {
    if (tids.count(sp.tid)) continue;
    if (t.is_track(sp.tid)) {
      tids[sp.tid] = {pid_for(t.track_group(sp.tid)), t.track_name(sp.tid)};
    } else {
      auto tid = static_cast<metrics::ThreadId>(sp.tid);
      tids[sp.tid] = {pid_for(acct.thread_group(tid)), acct.thread_name(tid)};
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (std::size_t i = 0; i < groups.size(); ++i) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << (i + 1)
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"" << json_escape(groups[i])
       << "\"}}";
  }
  for (const auto& [tid, info] : tids) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << info.first << ",\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json_escape(info.second)
       << "\"}}";
  }
  for (const Span& sp : t.spans()) {
    const auto& [pid, _] = tids[sp.tid];
    sep();
    bool instant = sp.kind == SpanKind::kRetry || sp.kind == SpanKind::kFallback ||
                   (sp.kind == SpanKind::kCoalesce && sp.begin == sp.end);
    os << "{\"ph\":\"" << (instant ? 'i' : 'X') << "\",\"pid\":" << pid
       << ",\"tid\":" << sp.tid << ",\"ts\":";
    put_us(os, sp.begin);
    if (instant) {
      os << ",\"s\":\"t\"";
    } else {
      os << ",\"dur\":";
      put_us(os, sp.end - sp.begin);
    }
    os << ",\"name\":\"" << json_escape(sp.name) << "\",\"cat\":\"" << to_string(sp.kind)
       << "\",\"args\":{\"read\":" << sp.read << ",\"bytes\":" << sp.bytes << "}}";
  }
  if (extra) {
    if (first) {
      // The hook's fragments are ",\n"-prefixed; an empty trace needs one
      // bare event first to keep the array valid.
      os << "{\"ph\":\"M\",\"pid\":9999,\"name\":\"process_name\","
         << "\"args\":{\"name\":\"obs\"}}";
      first = false;
    }
    extra(os);
  }
  os << "\n]}\n";
}

}  // namespace vread::trace
