// Benchmark-side spans: wall-clock intervals recorded around each call
// the benchmark makes into a layer. Spans live in memory while the
// workload runs and are written once at exit. A span's self time is
// its duration minus the time its child spans cover, so nested calls
// (a slice containing run_until and a measurement) are not counted
// twice. Off by default: a disabled recorder makes Span a no-op behind
// one branch, which is how the untraced runs stay unperturbed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;     // layer-qualified, e.g. "sim.run"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the recorder's spans, -1 = root
  std::uint64_t run_id = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id),
        epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span; returns its
  /// index (-1 when disabled).
  std::int64_t open(const char* name);
  void close(std::int64_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Seconds of self time summed per span name.
  std::map<std::string, double> self_seconds() const;

  /// One JSON object per line: name, start/end (ns since the
  /// recorder's epoch), parent index and run id. Returns false when
  /// the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::uint64_t run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;  // stack of open span indices
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(SpanRecorder& recorder, const char* name)
      : recorder_(recorder),
        index_(recorder.enabled() ? recorder.open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) recorder_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

}  // namespace perfbench
