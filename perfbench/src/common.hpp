#pragma once

// Helpers shared by the workload implementations.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

template <class F>
std::int64_t time_ns(F&& f) {
  const std::int64_t start = now_ns();
  f();
  return now_ns() - start;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// Median wall time, in nanoseconds, of `reps` runs of `f`.
template <class F>
double median_ns(int reps, F&& f) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i)
    samples.push_back(static_cast<double>(time_ns(f)));
  return median(std::move(samples));
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0 ? 0 : num / den;
}

/// Span totals of `name`, zero if no such span was recorded.
[[nodiscard]] inline SpanTotals totals_of(
    const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? SpanTotals{} : it->second;
}

[[nodiscard]] inline double ns_to_ms(double ns) { return ns / 1e6; }

std::unique_ptr<Workload> make_grid_workload(const WorkloadOptions& options);
std::unique_ptr<Workload> make_seq_workload(const WorkloadOptions& options);
std::unique_ptr<Workload> make_service_workload(
    const WorkloadOptions& options);
std::unique_ptr<Workload> make_stream_workload(const WorkloadOptions& options);

}  // namespace perfbench
