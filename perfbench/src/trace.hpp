#pragma once

// The benchmark's span recorder.  Spans are recorded from the
// benchmark's own code around calls into the library's public entry
// points, kept in memory, and written at exit as Chrome trace-event
// JSON (opens in Perfetto or chrome://tracing).  Single-threaded: every
// workload runs on the library's serial path.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index into Tracer::spans(), -1 = root
  std::int64_t call_id = -1;
};

/// Total and self time of every span name, in nanoseconds.  Self time
/// is a span's duration minus the part of it its children cover.
struct SpanTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t count = 0;
};

class Tracer {
 public:
  /// Opens a span under the innermost open span; returns its index.
  int begin(std::string name);
  /// Closes span `index`, which must be the innermost open span.
  void end(int index);
  void set_call(std::int64_t call_id) { call_id_ = call_id; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Structural self-check: every span closed, end >= start, every
  /// child inside its parent's interval, spans closed in LIFO order.
  /// Returns an empty string when the trace is well formed, else the
  /// first violation.
  [[nodiscard]] std::string check() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span).  At most
  /// `max_events` spans are written; the rest are counted in the file's
  /// metadata.  Returns false if the file could not be written.
  bool write_chrome_json(const std::string& path,
                         std::size_t max_events) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t call_id_ = -1;
  bool misnested_ = false;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
