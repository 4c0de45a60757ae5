// Experiment E12b: ParallelExecutor scaling — wall-clock of the full
// network sort on a large grid as worker threads increase.  Results are
// bit-identical across thread counts (disjoint phases); only the host
// time changes.  Timed in real time: the workers' CPU time is invisible
// to the main thread's clock.  BM_SortGridThreads uses OracleS2 (the
// executor splits its view sorts); BM_ShearsortGridThreads runs the
// executable ShearsortS2, whose tiled schedule the executor splits into
// contiguous ranges of views.  BM_OetTileKernel times one ShearsortS2
// phase over every PG_2 tile of the grid on a plain serial machine —
// the tiled path with its dispatched lane kernel, labelled by name —
// and reports real time per charged compare-exchange pair.
// BM_SortAttempt times one SortBackend::run_attempt on a path(4)^3
// SnakeOETS2 backend — the sort service's job shape, 64 keys — plain
// (arg 0) and with a permanently inverted comparator that only the
// certificate and its repair loop catch (arg 1), in real microseconds
// per attempt.

#include <benchmark/benchmark.h>

#include "core/product_sort.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "service/backend.hpp"
#include "network/oet_lanes.hpp"
#include "product/snake_order.hpp"

namespace {

using namespace prodsort;

std::vector<Key> keys_for(const ProductGraph& pg) {
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  std::uint64_t x = 88172645463325252ull;
  for (Key& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = static_cast<Key>(x % 1000003);
  }
  return keys;
}

void sort_grid(benchmark::State& state, const S2Sorter* s2) {
  const ProductGraph pg(labeled_path(16), 4);  // 65536 processors
  const auto keys = keys_for(pg);
  const int threads = static_cast<int>(state.range(0));
  ParallelExecutor exec(threads);
  SortOptions options;
  options.s2 = s2;
  for (auto _ : state) {
    Machine m(pg, keys, &exec);
    (void)sort_product_network(m, options);
    benchmark::DoNotOptimize(m.keys().data());
  }
  state.SetItemsProcessed(state.iterations() * pg.num_nodes());
}

void BM_SortGridThreads(benchmark::State& state) { sort_grid(state, nullptr); }
BENCHMARK(BM_SortGridThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ShearsortGridThreads(benchmark::State& state) {
  const ShearsortS2 shearsort;
  sort_grid(state, &shearsort);
}
BENCHMARK(BM_ShearsortGridThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_OetTileKernel(benchmark::State& state) {
  const ProductGraph pg(labeled_path(16), 4);
  const auto keys = keys_for(pg);
  const std::vector<ViewSpec> views = all_views(pg, 1, 2);
  const std::vector<bool> descending(views.size(), false);
  const ShearsortS2 shearsort;
  Machine m(pg, keys);
  m.set_check_disjoint(false);  // the tiled path in every build type
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(keys.begin(), keys.end(), m.mutable_keys().begin());
    state.ResumeTiming();
    shearsort.sort_views(m, views, descending);
    benchmark::DoNotOptimize(m.keys().data());
    benchmark::ClobberMemory();
  }
  // Pairs are counted in units of 1e9, so the inverted rate reads in
  // nanoseconds per pair.
  state.counters["ns_per_pair"] = benchmark::Counter(
      static_cast<double>(m.cost().comparisons) / 1e9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(oet_lane_kernel().name);
}
BENCHMARK(BM_OetTileKernel)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_SortAttempt(benchmark::State& state) {
  const ProductGraph pg(labeled_path(4), 3);
  const SnakeOETS2 snake_oet;
  BackendConfig config;
  if (state.range(0) != 0) config.fault_schedule = "seed=5,comparators=17@0I";
  SortBackend backend(pg, 0, config, &snake_oet, nullptr, BreakerConfig{});
  std::uint64_t seed = 88172645463325252ull;
  std::int64_t failed = 0;
  for (auto _ : state) {
    JobSpec job;
    job.key_seed = seed++;
    job.pattern = static_cast<int>(seed % 5);
    const AttemptResult result = backend.run_attempt(job, 1, 0);
    failed += result.success ? 0 : 1;
    benchmark::DoNotOptimize(result.steps);
  }
  // A faulted attempt may exhaust its repair budget; the service retries
  // it, so the share is reported, not an error.
  state.counters["failed_share"] = benchmark::Counter(
      static_cast<double>(failed), benchmark::Counter::kAvgIterations);
  state.SetLabel(state.range(0) != 0 ? "comparator-faulted" : "plain");
}
BENCHMARK(BM_SortAttempt)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_ParallelForOverhead(benchmark::State& state) {
  ParallelExecutor exec(static_cast<int>(state.range(0)));
  std::vector<std::int64_t> data(1 << 16, 1);
  for (auto _ : state) {
    exec.parallel_for(static_cast<std::int64_t>(data.size()),
                      [&](std::int64_t begin, std::int64_t end) {
                        for (std::int64_t i = begin; i < end; ++i)
                          data[static_cast<std::size_t>(i)] += 1;
                      });
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
