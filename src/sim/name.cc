#include "sim/name.h"

#include <mutex>
#include <ostream>
#include <unordered_set>

namespace vread::sim {

namespace {

struct ViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>()(s);
  }
};

// Node-based set: rehashing never moves an element, so the pointers Names
// hold stay valid. Reached through a never-destroyed pointer, so Names in
// static objects stay valid during static destruction too.
struct InternTable {
  std::mutex mu;
  std::unordered_set<std::string, ViewHash, std::equal_to<>> names;  // guarded by mu
  std::size_t calls = 0;                                             // guarded by mu
};

InternTable& table() {
  static InternTable* const t = new InternTable;
  return *t;
}

}  // namespace

const std::string* Name::intern(std::string_view s) {
  if (s.empty()) return &kEmpty;
  InternTable& t = table();
  const std::lock_guard<std::mutex> lock(t.mu);
  ++t.calls;
  auto it = t.names.find(s);
  if (it == t.names.end()) it = t.names.emplace(s).first;
  return &*it;
}

std::size_t Name::interned_count() {
  InternTable& t = table();
  const std::lock_guard<std::mutex> lock(t.mu);
  return t.names.size();
}

std::size_t Name::intern_calls() {
  InternTable& t = table();
  const std::lock_guard<std::mutex> lock(t.mu);
  return t.calls;
}

std::ostream& operator<<(std::ostream& os, Name n) { return os << n.str(); }

}  // namespace vread::sim
