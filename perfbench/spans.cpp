#include "spans.hpp"

#include <fstream>

namespace perfbench {

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int64_t SpanRecorder::open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.run_id = run_id_;
  rec.start_ns = now_ns();
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(std::move(rec));
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans are strictly nested (RAII on one thread), so the closing
  // span is always the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  // Children run sequentially inside their parent on one thread, so
  // the part of the parent they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t self =
        spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    out[spans_[i].name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run_id << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
