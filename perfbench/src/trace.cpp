#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int Tracer::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_ns = now_ns();
  span.parent = open_.empty() ? -1 : open_.back();
  span.call_id = call_id_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (open_.empty() || open_.back() != index) {
    misnested_ = true;
    return;
  }
  open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.end_ns >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    SpanTotals& t = out[s.name];
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
    ++t.count;
  }
  return out;
}

std::string Tracer::check() const {
  if (misnested_) return "a span was closed out of LIFO order";
  if (!open_.empty())
    return "span '" + spans_[static_cast<std::size_t>(open_.back())].name +
           "' never closed";
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) return "span '" + s.name + "' ends before it starts";
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns)
      return "span '" + s.name + "' escapes its parent '" + p.name + "'";
  }
  return {};
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::size_t written = std::min(max_events, spans_.size());
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                  "\"spans\":%zu,\"dropped\":%zu},\"traceEvents\":[",
               spans_.size(), spans_.size() - written);
  for (std::size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    // Span names are benchmark-chosen identifiers: no JSON escaping
    // is needed.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"call\":%lld,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.call_id), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
