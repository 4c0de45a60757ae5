// bench_wallclock: the wall-clock benchmark's main program.
//
//   bench_wallclock --workload NAME --seed N --seconds S --trace 0|1
//                   --out-dir DIR [--git-rev REV]
//
// Untraced (--trace 0): sets the workload up eleven times, interleaved
// with timings of a reference std::sort (setup_s is the median set-up
// time in reference seconds), then runs whole rounds of calls for S
// seconds and reports the end-to-end metrics.  Traced (--trace 1): one
// set-up, then for S seconds untraced rounds alternating with rounds
// under the span recorder, then the per-layer metrics, the trace
// self-check, and DIR/trace_NAME.json.
//
// Every call's output is checked; the last line of output is
// "RESULT {json}" and the exit code is nonzero if any check failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "meta.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// setup_s is set-up time in reference seconds: the median set-up wall
// time divided by the median time of a fixed 2^16-key std::sort, timed
// kRefReps times before the first set-up and after each one, times that
// sort's nominal time on the reference container.  Host speed drift
// moves both alike and cancels (README.md, "Spread"); the raw median is
// reported as setup_wall_s.
constexpr std::size_t kRefKeys = std::size_t{1} << 16;
constexpr double kRefSortS = 0.006;
constexpr int kRefReps = 8;

constexpr int kSetups = 11;
constexpr std::size_t kMaxTraceEvents = 200000;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_rev = "unknown";
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--out-dir DIR [--git-rev REV]\nworkloads:",
               argv0);
  for (const std::string& name : workload_names())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (std::strcmp(argv[i], "--seed") == 0) {
        args.seed = std::stoull(value());
        continue;
      }
      if (std::strcmp(argv[i], "--seconds") == 0) {
        args.seconds = std::stod(value());
        continue;
      }
    } catch (const std::logic_error&) {  // not a number, or out of range
      usage(argv[0]);
    }
    if (std::strcmp(argv[i], "--workload") == 0) args.workload = value();
    else if (std::strcmp(argv[i], "--trace") == 0) args.trace = value() == "1";
    else if (std::strcmp(argv[i], "--out-dir") == 0) args.out_dir = value();
    else if (std::strcmp(argv[i], "--git-rev") == 0) args.git_rev = value();
    else usage(argv[0]);
  }
  const std::vector<std::string>& names = workload_names();
  // The name becomes part of a directory path: only known names pass.
  if (std::find(names.begin(), names.end(), args.workload) == names.end() ||
      args.out_dir.empty() || args.seconds <= 0)
    usage(argv[0]);
  return args;
}

/// Totals of a loop of whole rounds of calls.
struct LoopStats {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t keys = 0;
  std::int64_t call_ns = 0;
  std::int64_t std_ns = 0;
  std::vector<double> call_ms;
  [[nodiscard]] double keys_per_s() const {
    return ratio(static_cast<double>(keys), call_ns / 1e9);
  }
};

/// Runs one whole round of calls, adding its results to `stats`.
void run_round(Workload& workload, std::int64_t& index, Tracer* tracer,
               LoopStats& stats) {
  for (int c = 0; c < workload.round_calls(); ++c, ++index) {
    ++stats.attempted;
    if (tracer != nullptr) tracer->set_call(index);
    CallResult r;
    try {
      r = workload.call(index, tracer);
    } catch (const std::exception& e) {
      r.error = std::string("threw: ") + e.what();
    }
    if (!r.error.empty()) {
      ++stats.failed;
      std::printf("CHECK FAILED call %lld: %s\n", static_cast<long long>(index),
                  r.error.c_str());
      continue;
    }
    stats.keys += r.keys;
    stats.call_ns += r.call_ns;
    stats.std_ns += r.std_ns;
    stats.call_ms.push_back(ns_to_ms(static_cast<double>(r.call_ns)));
  }
}

[[nodiscard]] bool elapsed(std::int64_t start, double seconds) {
  return static_cast<double>(now_ns() - start) >= seconds * 1e9;
}

/// Peak resident set of this process image, in MiB.  VmHWM, not
/// getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so it
/// would report the launching interpreter's footprint instead.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// The measured metrics as a JSON object of name -> value; run.py
/// attaches the units BENCHMARK.json declares.
std::string metrics_json(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", out.size() == 1 ? "" : ",",
                  name.c_str(), value);
    out += buf;
  }
  return out + "}";
}

/// Appends the wall time of kRefReps sorts of `reference` to `samples`.
void time_reference_sorts(const std::vector<prodsort::Key>& reference,
                          std::vector<double>& samples) {
  std::vector<prodsort::Key> keys;
  for (int i = 0; i < kRefReps; ++i) {
    keys = reference;
    samples.push_back(static_cast<double>(
        time_ns([&] { std::sort(keys.begin(), keys.end()); })));
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string scratch = (std::filesystem::path(args.out_dir) /
                               ("scratch_" + args.workload))
                                  .string();
  std::filesystem::create_directories(args.out_dir);
  std::filesystem::create_directories(scratch);
  WorkloadOptions options;
  options.seed = args.seed;
  options.scratch_dir = scratch;

  RunMeta meta;
  meta.workload = args.workload;
  meta.seed = args.seed;
  meta.trace = args.trace;
  meta.git_revision = args.git_rev;
  meta.journal_dir = scratch;
  const std::string meta_text = meta_json(meta);
  if (debug_build())
    std::printf("WARNING: NDEBUG is not set — Machine's per-step disjointness "
                "sweep is on; this measures a different program\n");

  std::map<std::string, double> values;
  std::vector<std::string> problems;
  LoopStats timed;
  std::string description;
  try {
    std::unique_ptr<Workload> workload;
    const std::vector<prodsort::Key> reference =
        make_keys(Family::kUniform, kRefKeys, kDefaultSeed);
    std::vector<double> setups;
    std::vector<double> ref_ns;
    time_reference_sorts(reference, ref_ns);
    for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
      workload.reset();
      const std::int64_t start = now_ns();
      workload = make_workload(args.workload, options);
      workload->setup();
      setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
      time_reference_sorts(reference, ref_ns);
    }
    const double setup_ref_s = median(setups) * ratio(kRefSortS, median(ref_ns) / 1e9);
    std::printf("set-up: median %.4f s wall over %zu, reference sort median "
                "%.3f ms over %zu -> %.4f reference s\n",
                median(setups), setups.size(), median(ref_ns) / 1e6, ref_ns.size(),
                setup_ref_s);
    description = workload->describe();
    std::printf("workload %s seed %llu: %s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), description.c_str());
    std::int64_t index = 0;
    const std::int64_t start = now_ns();
    if (!args.trace) {
      do run_round(*workload, index, nullptr, timed);
      while (!elapsed(start, args.seconds));
      values["keys_per_s"] = timed.keys_per_s();
      values["call_ms_p50"] = median(timed.call_ms);
      values["vs_std_sort"] = ratio(static_cast<double>(timed.call_ns),
                                    static_cast<double>(timed.std_ns));
      values["setup_s"] = setup_ref_s;
      values["setup_wall_s"] = median(setups);
      values["peak_rss_mb"] = peak_rss_mb();
      std::printf("calls %lld (%zu timed samples for call_ms_p50), failed %lld\n",
                  static_cast<long long>(timed.attempted), timed.call_ms.size(),
                  static_cast<long long>(timed.failed));
    } else {
      // Untraced and traced rounds alternate, so both see the same
      // machine state and their difference is the tracing overhead.
      LoopStats plain;
      Tracer tracer;
      for (int round = 0; round < 2 || !elapsed(start, args.seconds); ++round) {
        if (round % 2 == 0) run_round(*workload, index, nullptr, plain);
        else run_round(*workload, index, &tracer, timed);
      }
      const std::int64_t traced_calls = timed.attempted;
      timed.attempted += plain.attempted;
      timed.failed += plain.failed;
      LayerReport layers;
      workload->layer_metrics(tracer, traced_calls, layers);
      layers.metrics["trace.overhead_frac"] =
          ratio(plain.keys_per_s() - timed.keys_per_s(), plain.keys_per_s());
      values = layers.metrics;
      problems = layers.problems;
      if (const std::string bad = tracer.check(); !bad.empty())
        problems.push_back("trace: " + bad);
      const std::string trace_path =
          (std::filesystem::path(args.out_dir) / ("trace_" + args.workload + ".json"))
              .string();
      if (!tracer.write_chrome_json(trace_path, kMaxTraceEvents))
        problems.push_back("could not write " + trace_path);
      std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
                  trace_path.c_str());
    }
  } catch (const std::exception& e) {
    problems.push_back(std::string("aborted: ") + e.what());
  }
  std::filesystem::remove_all(scratch);

  for (const std::string& p : problems) std::printf("SELF-CHECK FAILED: %s\n", p.c_str());
  const bool correct = problems.empty() && timed.failed == 0 && timed.attempted > 0;
  for (const auto& [name, value] : values) std::printf("  %-34s %.6g\n", name.c_str(), value);

  const std::string metrics = metrics_json(values);
  std::string problem_list = "[";
  for (std::size_t i = 0; i < problems.size(); ++i)
    problem_list.append(i == 0 ? "" : ",").append(json_string(problems[i]));
  problem_list += "]";
  std::printf("RESULT {\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"failed_frac\":%.17g,\"metrics\":%s,\"meta\":%s,"
              "\"inputs\":%s,\"problems\":%s}\n",
              correct ? "true" : "false",
              static_cast<long long>(timed.attempted),
              static_cast<long long>(timed.failed),
              ratio(static_cast<double>(timed.failed),
                    static_cast<double>(timed.attempted)),
              metrics.c_str(), meta_text.c_str(), json_string(description).c_str(),
              problem_list.c_str());
  return correct ? 0 : 1;
}
