// Dependency-free binary serialization for checkpoints: a growable
// little-endian Writer, a bounds-checked Reader that throws
// ckpt::ParseError on any overrun or tag mismatch (the load path
// catches it and turns it into a clean Status), and the CRC-32
// (IEEE 802.3, reflected) used to seal every checkpoint file.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace ppo::ckpt {

/// CRC-32 over `data`, continuing from `crc` (pass 0 to start).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t crc = 0);

/// Thrown by Reader on truncation, overrun or a section-tag mismatch.
/// Never escapes the ckpt load entry points.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only little-endian byte sink. All integers are fixed-width;
/// doubles are raw IEEE-754 bits (bit-exactness is the whole point).
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    size(s.size());
    raw(s.data(), s.size());
  }

  void bytes(const std::vector<std::uint8_t>& v) {
    size(v.size());
    raw(v.data(), v.size());
  }

  void rng(const Rng& r) {
    for (std::uint64_t w : r.state()) u64(w);
  }

  void u64_vec(const std::vector<std::uint64_t>& v) {
    size(v.size());
    for (std::uint64_t x : v) u64(x);
  }

  /// Section tag: a cheap structural guard so a version-skewed payload
  /// fails at the section boundary instead of misparsing silently.
  void tag(std::uint32_t t) { u32(t); }

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked little-endian reader over a byte span. Every read
/// throws ParseError rather than reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[off_++]);
  }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  double f64() { return fixed<double>(); }
  bool b() { return u8() != 0; }

  std::size_t size() {
    const std::uint64_t v = u64();
    // A size can never exceed the bytes that remain: catching it here
    // turns a corrupt length into a diagnostic instead of a bad_alloc.
    if (v > remaining())
      throw ParseError("length field exceeds remaining payload");
    return static_cast<std::size_t>(v);
  }

  std::string str() {
    const std::size_t n = size();
    need(n);
    std::string out(data_.substr(off_, n));
    off_ += n;
    return out;
  }

  std::vector<std::uint8_t> bytes() {
    const std::size_t n = size();
    const auto* p =
        reinterpret_cast<const std::uint8_t*>(data_.data() + off_);
    off_ += n;
    return std::vector<std::uint8_t>(p, p + n);
  }

  Rng rng() {
    std::array<std::uint64_t, 4> s;
    for (auto& w : s) w = u64();
    Rng r(0);
    r.set_state(s);
    return r;
  }

  std::vector<std::uint64_t> u64_vec() {
    const std::size_t n = size();
    std::vector<std::uint64_t> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(u64());
    return out;
  }

  void tag(std::uint32_t expected) {
    const std::uint32_t got = u32();
    if (got != expected)
      throw ParseError("section tag mismatch: expected " +
                       std::to_string(expected) + ", got " +
                       std::to_string(got));
  }

  std::size_t remaining() const { return data_.size() - off_; }
  bool done() const { return off_ == data_.size(); }

 private:
  template <typename T>
  T fixed() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (n > remaining()) throw ParseError("payload truncated mid-field");
  }

  std::string_view data_;
  std::size_t off_ = 0;
};

}  // namespace ppo::ckpt
