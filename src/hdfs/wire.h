// Wire codec for the (simplified) HDFS data-transfer protocol.
//
// Little-endian framing helpers used by the datanode service and the
// DFSClient socket path. Strings and frames are length-prefixed (u16).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "mem/buffer.h"

namespace vread::hdfs::wire {

enum class Op : std::uint8_t {
  kReadBlock = 1,
  kWriteBlock = 2,
};

// The u16 prefix for `n` bytes of `what`. A length past 65,535 throws
// std::length_error: a truncated prefix would desynchronise the stream.
inline std::uint16_t u16_length(std::size_t n, const char* what) {
  if (n > 0xffff) {
    throw std::length_error(std::string(what) + " of " + std::to_string(n) +
                            " bytes exceeds its u16 length field");
  }
  return static_cast<std::uint16_t>(n);
}

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.append(&v, 1); }
  void u16(std::uint16_t v) {
    std::uint8_t raw[2] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8)};
    buf_.append(raw, 2);
  }
  void u64(std::uint64_t v) {
    std::uint8_t raw[8];
    for (int i = 0; i < 8; ++i) raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
    buf_.append(raw, 8);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u16(u16_length(s.size(), "wire string"));
    buf_.append(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  mem::Buffer take() { return std::move(buf_); }

 private:
  mem::Buffer buf_;
};

class Reader {
 public:
  explicit Reader(const mem::Buffer& buf) : buf_(buf) {}
  std::uint8_t u8() { return buf_[pos_++]; }
  std::uint16_t u16() {
    std::uint16_t v = static_cast<std::uint16_t>(buf_[pos_] | buf_[pos_ + 1] << 8);
    pos_ += 2;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() {
    std::uint16_t n = u16();
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::size_t pos() const { return pos_; }

 private:
  const mem::Buffer& buf_;
  std::size_t pos_ = 0;
};

}  // namespace vread::hdfs::wire
