// seq_engine: multiway_sort_any for N in {2, 4, 8} at the sizes where its
// behaviour changes (exact powers, sentinel padding, the < N^2
// fall-through to std::sort), up to 8^6 = 262,144 keys.  The only
// workload with no Machine: it isolates the sequence engine, and it is
// the no-change control for network-layer changes.

#include <stdexcept>

#include "common.hpp"
#include "core/fast_sequence_sort.hpp"
#include "inputs.hpp"
#include "network/parallel_executor.hpp"

namespace perfbench {

namespace {

using namespace prodsort;

std::string radix_span(NodeId n) {
  std::string name = "core.seq.n";
  return name.append(std::to_string(n));
}

class SeqWorkload final : public Workload {
 public:
  explicit SeqWorkload(const WorkloadOptions& options)
      : seed_(options.seed), cases_(seq_cases()) {}

  void setup() override {
    // Warm-up: one call per radix at its largest size.
    for (const NodeId n : {NodeId{2}, NodeId{4}, NodeId{8}}) {
      std::size_t largest = 0;
      for (const SeqCase& c : cases_)
        if (c.n == n) largest = std::max(largest, c.size);
      std::vector<Key> keys = make_keys(Family::kUniform, largest, kWarmupSeed);
      std::vector<Key> expected = keys;
      std::sort(expected.begin(), expected.end());
      multiway_sort_any(keys, n);
      if (keys != expected) throw std::runtime_error("warm-up sort failed");
    }
  }

  [[nodiscard]] int round_calls() const override {
    return static_cast<int>(cases_.size());
  }

  CallResult call(std::int64_t index, Tracer* tracer) override {
    const SeqCase& c = cases_[static_cast<std::size_t>(index) % cases_.size()];
    std::vector<Key> keys =
        make_keys(c.family, c.size, mix(seed_, static_cast<std::uint64_t>(index)));
    CallResult result;
    result.keys = static_cast<std::int64_t>(keys.size());
    std::vector<Key> expected = keys;
    result.std_ns = time_ns([&] { std::sort(expected.begin(), expected.end()); });
    const std::string span_name = radix_span(c.n);
    result.call_ns = time_ns([&] {
      ScopedSpan span(tracer, span_name);
      multiway_sort_any(keys, c.n);
    });
    if (keys != expected) result.error = "output != std::sort of the input";
    if (tracer != nullptr) {
      keys_by_radix_[c.n] += static_cast<std::int64_t>(c.size);
      real_keys_ += static_cast<std::int64_t>(c.size);
      pad_keys_ += static_cast<std::int64_t>(pad_keys(c.size, c.n));
      if (c.size < static_cast<std::size_t>(c.n) * static_cast<std::size_t>(c.n))
        ++fallthrough_calls_;
    }
    return result;
  }

  void layer_metrics(const Tracer& tracer, std::int64_t calls,
                     LayerReport& out) override {
    const auto totals = tracer.totals();
    auto& m = out.metrics;
    for (const NodeId n : {NodeId{2}, NodeId{4}, NodeId{8}}) {
      m["core.seq.ns_per_key.n" + std::to_string(n)] =
          ratio(static_cast<double>(totals_of(totals, radix_span(n)).total_ns),
                static_cast<double>(keys_by_radix_[n]));
    }
    m["core.seq.pad_share"] =
        ratio(static_cast<double>(pad_keys_), static_cast<double>(real_keys_));
    const double rounds = static_cast<double>(calls) / round_calls();
    m["core.seq.fallthrough_calls"] = fallthrough_calls_ / rounds;
    out.expect(fallthrough_calls_ * round_calls() == 3 * calls,
               "fall-through call count != three per round");

    // The same 8^6 sort serially and on a 4-thread ParallelExecutor.
    const std::vector<Key> keys = make_keys(Family::kUniform, 262144, seed_);
    const auto sort_with = [&](ParallelExecutor* executor) {
      std::vector<Key> copy = keys;
      multiway_sort_any(copy, 8, executor);
    };
    ParallelExecutor four(4);
    const double serial = median_ns(5, [&] { sort_with(nullptr); });
    const double threaded = median_ns(5, [&] { sort_with(&four); });
    m["core.seq.executor_4t_over_1t"] = ratio(threaded, serial);
  }

  [[nodiscard]] std::string describe() const override {
    std::string out = "multiway_sort_any cases (N:size:family):";
    for (const SeqCase& c : cases_)
      out.append(" ").append(std::to_string(c.n)).append(":")
          .append(std::to_string(c.size)).append(":").append(family_name(c.family));
    return out;
  }

 private:
  std::uint64_t seed_;
  std::vector<SeqCase> cases_;
  std::map<NodeId, std::int64_t> keys_by_radix_;  ///< traced keys per N
  std::int64_t real_keys_ = 0;
  std::int64_t pad_keys_ = 0;
  std::int64_t fallthrough_calls_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_seq_workload(const WorkloadOptions& options) {
  return std::make_unique<SeqWorkload>(options);
}

}  // namespace perfbench
