#pragma once

// The benchmark's four workloads.  Each one exposes the same shape:
// set-up (topology, sorter and service objects plus warm-up calls),
// one "call" into the workload's library entry point at a time, and a
// traced-run pass that turns recorded spans and direct calls into
// per-layer metrics.  Inputs are a pure function of (seed, call index).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The seed at which report hashes and stream fingerprints are pinned.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// The seed of the warm-up inputs set-up runs.  It is fixed, so set-up
/// does the same work at every run seed and setup_s does not vary with
/// the traffic or crash pattern a seed happens to draw.
inline constexpr std::uint64_t kWarmupSeed = 0x5eed0fc0ffeeULL;

struct CallResult {
  std::int64_t keys = 0;     ///< real input keys sorted and checked
  std::int64_t call_ns = 0;  ///< wall time of the timed library call(s)
  std::int64_t std_ns = 0;   ///< std::sort on the same keys
  std::string error;         ///< empty when every output check passed
};

/// Per-layer metrics of one traced run, plus self-check violations.
struct LayerReport {
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;
  void expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the workload's library objects and runs its warm-up calls.
  /// Throws on a failed warm-up check.
  virtual void setup() = 0;

  /// Calls in one round.  Runs execute whole rounds only, so every run
  /// sees the same mix of input shapes and families.
  [[nodiscard]] virtual int round_calls() const = 0;

  /// Runs call `index`: builds its input from (seed, index), times the
  /// library call, checks the output.  With a tracer the call runs
  /// through the timing hooks and records spans.
  virtual CallResult call(std::int64_t index, Tracer* tracer) = 0;

  /// After the traced calls: derives per-layer metrics from the spans
  /// and from the workload's direct measurements, and cross-checks the
  /// span counts against the library's report totals.
  virtual void layer_metrics(const Tracer& tracer, std::int64_t traced_calls,
                             LayerReport& out) = 0;

  /// One line describing the inputs (shapes and family mix).
  [[nodiscard]] virtual std::string describe() const = 0;
};

struct WorkloadOptions {
  std::uint64_t seed = kDefaultSeed;
  std::string scratch_dir;  ///< journal and spill files go below here
};

/// The workload names, in the order the benchmark documents them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& options);

}  // namespace perfbench
