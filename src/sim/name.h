// Interned immutable names (datanode ids, block file names, tenants).
//
// A Name is a pointer into a process-wide intern table: copying one copies
// a pointer, `==` compares pointers and the hash is the pointer's hash, so
// per-read code that carries, compares and looks up names does no string
// work at all. `<` compares the strings' contents, so an ordered container
// keyed by Name iterates exactly like one keyed by std::string.
//
// Interning rule (DESIGN.md §13): a Name is built once, where the name
// first enters the system (block allocation, datanode/VM registration,
// tenant setup) and is then copied; per-read code never builds one from a
// std::string. That is why construction from a std::string is explicit,
// while a string literal converts implicitly.
//
// Ordering rule: a hash container keyed by Name iterates in pointer order,
// which differs between runs. Such containers are for lookups only;
// nothing iterated in hash order may reach an event, a metric or output.
//
// The table is guarded by a mutex (several Simulations may run on several
// threads); entries are never freed, so a Name stays valid for the life of
// the process.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace vread::sim {

class Name {
 public:
  // The empty name.
  Name() noexcept = default;
  // Literal names convert implicitly ("datanode1" in a test or a config).
  Name(const char* s) : p_(intern(s)) {}  // NOLINT(runtime/explicit)
  explicit Name(std::string_view s) : p_(intern(s)) {}
  explicit Name(const std::string& s) : p_(intern(s)) {}

  const std::string& str() const noexcept { return *p_; }
  operator const std::string&() const noexcept { return *p_; }  // NOLINT(runtime/explicit)
  bool empty() const noexcept { return p_ == &kEmpty; }

  // Distinct non-empty names interned so far in this process, and how
  // many times a non-empty name was looked up in the table to build a
  // Name. Tests read both to hold per-read code to the interning rule.
  static std::size_t interned_count();
  static std::size_t intern_calls();

  friend bool operator==(Name a, Name b) noexcept { return a.p_ == b.p_; }
  friend bool operator==(Name a, const char* b) { return *a.p_ == b; }
  friend bool operator==(Name a, const std::string& b) { return *a.p_ == b; }
  friend bool operator<(Name a, Name b) { return a.p_ != b.p_ && *a.p_ < *b.p_; }

  // Pointer hash, for lookup-only tables (see the ordering rule above).
  struct Hash {
    std::size_t operator()(Name n) const noexcept {
      return std::hash<const void*>()(n.p_);
    }
  };

 private:
  static const std::string* intern(std::string_view s);

  inline static const std::string kEmpty{};
  const std::string* p_ = &kEmpty;
};

std::ostream& operator<<(std::ostream& os, Name n);

}  // namespace vread::sim
