// grid_shearsort: sort_product_network on path(16)^4 (65,536 keys) with
// ShearsortS2 — one large data-oblivious sort, where the compare-exchange
// kernel, pair and view generation, and the merge levels do nearly all
// of the work.  No service, stream, durability or sequence-engine code
// runs.

#include <stdexcept>

#include "common.hpp"
#include "core/product_sort.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "graph/labeled_factor.hpp"
#include "hooks.hpp"
#include "inputs.hpp"
#include "network/parallel_executor.hpp"
#include "product/product_graph.hpp"
#include "product/subgraph_view.hpp"
#include "staticcheck/schedule_ir.hpp"

namespace perfbench {

namespace {

using namespace prodsort;

constexpr NodeId kRadix = 16;
constexpr int kDims = 4;

// Data-oblivious counters of one sort, identical for every input and
// seed (Theorem 1 phase counts; the rest pinned from the library).
constexpr std::int64_t kS2Phases = (kDims - 1) * (kDims - 1);
constexpr std::int64_t kRoutingPhases = (kDims - 1) * (kDims - 2);
constexpr std::int64_t kExecSteps = 1590;
constexpr std::int64_t kComparisons = 48848640;
constexpr double kFormulaTime = 1674;

class GridWorkload final : public Workload {
 public:
  explicit GridWorkload(const WorkloadOptions& options) : seed_(options.seed) {}

  void setup() override {
    pg_ = std::make_unique<ProductGraph>(labeled_path(kRadix), kDims);
    // Warm-up: one sort of an input no timed call uses.  The sort is
    // data-oblivious, so its work does not vary with the run seed.
    const CallResult warm = call(-1, nullptr);
    if (!warm.error.empty())
      throw std::runtime_error("warm-up call failed: " + warm.error);
  }

  [[nodiscard]] int round_calls() const override { return kFamilyCount; }

  CallResult call(std::int64_t index, Tracer* tracer) override {
    const Family family = family_at(static_cast<int>(index + kFamilyCount));
    std::vector<Key> keys =
        make_keys(family, static_cast<std::size_t>(pg_->num_nodes()),
                  mix(seed_, static_cast<std::uint64_t>(index)));
    CallResult result;
    result.keys = static_cast<std::int64_t>(keys.size());
    std::vector<Key> expected = keys;
    result.std_ns = time_ns([&] { std::sort(expected.begin(), expected.end()); });

    std::unique_ptr<Machine> machine;
    if (tracer == nullptr) {
      result.call_ns = time_ns([&] {
        machine = std::make_unique<Machine>(*pg_, std::move(keys));
        SortOptions options;
        options.s2 = &s2_;
        (void)sort_product_network(*machine, options);
      });
    } else {
      result.call_ns = time_ns([&] { machine = traced_sort(std::move(keys), *tracer); });
    }
    result.error = check(*machine, expected);
    if (tracer != nullptr && result.error.empty()) {
      const CostModel& cost = machine->cost();
      if (observed_pairs_ != cost.comparisons)
        result.error = "span-counted pairs != CostModel::comparisons";
      else if (observed_hops_ != cost.exec_steps)
        result.error = "span-counted hops != CostModel::exec_steps";
      else if (observed_s2_calls_ != cost.s2_phases)
        result.error = "TimedS2 calls != CostModel::s2_phases";
      else if (observed_records_ != cost.s2_phases + cost.routing_phases)
        result.error = "phase trace records != S2 + routing phases";
      exchanges_ += cost.exchanges;
      ce_pairs_ += observed_pairs_;
      ce_phases_ += observed_phases_;
    }
    return result;
  }

  void layer_metrics(const Tracer& tracer, std::int64_t calls,
                     LayerReport& out) override {
    const auto totals = tracer.totals();
    const double n = static_cast<double>(calls);
    const SpanTotals call = totals_of(totals, "grid.call");
    const SpanTotals ce = totals_of(totals, "network.ce");
    const SpanTotals s2 = totals_of(totals, "core.s2");
    const SpanTotals level3 = totals_of(totals, "core.merge_level_3");
    const SpanTotals level4 = totals_of(totals, "core.merge_level_4");
    auto& m = out.metrics;
    m["network.ce_ms"] = ns_to_ms(ce.total_ns / n);
    m["network.ce_share"] = ratio(ce.total_ns, call.total_ns);
    m["network.ce_ns_per_pair"] = ratio(ce.total_ns, static_cast<double>(ce_pairs_));
    m["network.ce_steps"] = ce_phases_ / n;
    m["network.ce_pairs"] = ce_pairs_ / n;
    m["core.s2.ms"] = ns_to_ms(s2.total_ns / n);
    m["core.s2.self_ms"] = ns_to_ms(s2.self_ns / n);
    m["core.s2.phases"] = s2.count / n;
    m["core.initial_s2_ms"] =
        ns_to_ms(totals_of(totals, "core.initial_s2").total_ns / n);
    m["core.merge_level_3_ms"] = ns_to_ms(level3.total_ns / n);
    m["core.merge_level_4_ms"] = ns_to_ms(level4.total_ns / n);
    m["core.transposition_self_ms"] =
        ns_to_ms((level3.self_ns + level4.self_ns) / n);
    m["core.exec_steps"] = kExecSteps;
    m["core.comparisons"] = kComparisons;
    m["core.exchanges"] = exchanges_ / n;
    m["core.formula_time"] = kFormulaTime;
    out.expect(ce_pairs_ == kComparisons * calls,
               "network.ce_pairs != CostModel::comparisons");
    out.expect(s2.count == kS2Phases * calls,
               "core.s2.phases != Theorem 1's (r-1)^2 per sort");
    out.expect(ce.count == ce_phases_, "network.ce span count != phases observed");
    out.expect(totals_of(totals, "core.initial_s2").count == calls &&
                   level3.count == calls && level4.count == calls,
               "level spans != one per level per sort");

    measure_executor(m);
    measure_staticcheck(m, out);
  }

  [[nodiscard]] std::string describe() const override {
    std::string families;
    for (int f = 0; f < kFamilyCount; ++f)
      families += std::string(f == 0 ? "" : ",") + family_name(family_at(f));
    return "path(16)^4 = 65536 keys, ShearsortS2, one call per family per "
           "round: " + families;
  }

 private:
  /// sort_product_network itself, with the timing hooks attached: a
  /// passive CeObserver, a forwarding TimedS2, and level spans read off
  /// the driver's own phase trace.
  std::unique_ptr<Machine> traced_sort(std::vector<Key> keys, Tracer& tracer) {
    CeObserver observer(&tracer);
    std::vector<PhaseRecord> records;
    LevelSpans levels(&tracer, &records);
    const TimedS2 s2(s2_, &tracer, &levels);
    ScopedSpan call_span(&tracer, "grid.call");
    auto machine = std::make_unique<Machine>(*pg_, std::move(keys));
    machine->set_observer(&observer);
    SortOptions options;
    options.s2 = &s2;
    options.trace = &records;
    (void)sort_product_network(*machine, options);
    levels.finish();
    machine->set_observer(nullptr);
    observed_pairs_ = observer.pairs();
    observed_hops_ = observer.hops();
    observed_phases_ = observer.phases();
    observed_s2_calls_ = s2.calls();
    observed_records_ = static_cast<std::int64_t>(records.size());
    return machine;
  }

  /// Empty when the output is sorted and every data-oblivious counter
  /// matches its pinned value, else the first violation.
  [[nodiscard]] std::string check(const Machine& machine,
                                  const std::vector<Key>& expected) const {
    const CostModel& cost = machine.cost();
    if (machine.read_snake(full_view(*pg_)) != expected)
      return "snake order != std::sort of the input";
    if (cost.s2_phases != kS2Phases || cost.routing_phases != kRoutingPhases)
      return "phase counts differ from Theorem 1";
    if (cost.exec_steps != kExecSteps || cost.comparisons != kComparisons ||
        cost.formula_time != kFormulaTime)
      return "data-oblivious counters moved: exec_steps=" +
             std::to_string(cost.exec_steps) +
             " comparisons=" + std::to_string(cost.comparisons) +
             " formula_time=" + std::to_string(cost.formula_time);
    return {};
  }

  void measure_executor(std::map<std::string, double>& m) {
    const std::vector<Key> keys = make_keys(
        Family::kUniform, static_cast<std::size_t>(pg_->num_nodes()), seed_);
    const auto sort_with = [&](ParallelExecutor* executor) {
      Machine machine(*pg_, keys, executor);
      SortOptions options;
      options.s2 = &s2_;
      (void)sort_product_network(machine, options);
    };
    ParallelExecutor four(4);
    const double serial = median_ns(3, [&] { sort_with(nullptr); });
    const double threaded = median_ns(3, [&] { sort_with(&four); });
    m["network.executor_4t_over_1t"] = ratio(threaded, serial);

    std::vector<std::int64_t> data(65536);
    const auto fill = [&](ParallelExecutor& executor) {
      executor.parallel_for(static_cast<std::int64_t>(data.size()),
                            [&](std::int64_t begin, std::int64_t end) {
                              for (std::int64_t i = begin; i < end; ++i)
                                data[static_cast<std::size_t>(i)] += i;
                            });
    };
    ParallelExecutor one(1);
    m["network.parallel_for_us_1t"] = median_ns(201, [&] { fill(one); }) / 1e3;
    m["network.parallel_for_us_4t"] = median_ns(201, [&] { fill(four); }) / 1e3;
  }

  void measure_staticcheck(std::map<std::string, double>& m, LayerReport& out) {
    ScheduleIR ir;
    m["staticcheck.record_s"] =
        time_ns([&] { ir = record_product_schedule(*pg_, s2_); }) / 1e9;
    const std::int64_t pairs = ir.total_pairs();
    m["staticcheck.ir_pairs"] = static_cast<double>(pairs);
    m["staticcheck.ir_bytes"] = static_cast<double>(
        pairs * static_cast<std::int64_t>(sizeof(CEPair)) +
        static_cast<std::int64_t>(ir.phases().size() * sizeof(SchedulePhase)));
    out.expect(pairs == kComparisons, "staticcheck IR pairs != comparisons");

    std::vector<Key> keys = make_keys(
        Family::kUniform, static_cast<std::size_t>(pg_->num_nodes()), seed_ ^ 5);
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    Machine machine(*pg_, std::move(keys));
    m["staticcheck.replay_ms"] =
        ns_to_ms(static_cast<double>(time_ns([&] { apply_schedule(machine, ir); })));
    out.expect(machine.read_snake(full_view(*pg_)) == expected,
               "apply_schedule replay did not sort");
  }

  std::uint64_t seed_;
  std::unique_ptr<ProductGraph> pg_;
  ShearsortS2 s2_;
  std::int64_t observed_pairs_ = 0;
  std::int64_t observed_hops_ = 0;
  std::int64_t observed_phases_ = 0;
  std::int64_t observed_s2_calls_ = 0;
  std::int64_t observed_records_ = 0;
  std::int64_t ce_pairs_ = 0;
  std::int64_t ce_phases_ = 0;
  std::int64_t exchanges_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_grid_workload(const WorkloadOptions& options) {
  return std::make_unique<GridWorkload>(options);
}

}  // namespace perfbench
