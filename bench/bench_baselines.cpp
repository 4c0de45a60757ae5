// Experiment E11 (Section 1 comparison claims): the multiway-merge sort
// against Columnsort, Batcher's odd-even merge, shearsort, and std::sort
// at the sequence level.  The paper argues its merge-based scheme beats
// Columnsort's sort-based scheme because Step 1/3 are free and the only
// full sorts touch N^2 keys; here we report total comparison-ish work
// (host wall time) and the structural counters for the same inputs.

#include <algorithm>
#include <cstdio>

#include "baselines/batcher_sequence.hpp"
#include "baselines/columnsort.hpp"
#include "baselines/samplesort.hpp"
#include "baselines/shearsort.hpp"
#include "bench_util.hpp"
#include "core/fast_sequence_sort.hpp"
#include "core/sequence_sort.hpp"

namespace {

using namespace prodsort;
using bench::Table;
using bench::fmt;

}  // namespace

int main() {
  std::printf("E11: sequence-level comparison — multiway merge vs baselines\n\n");

  Table table({"keys", "N", "r", "mw-merge ms", "mw-fast ms", "mw-fast 4t ms",
               "columnsort ms", "batcher ms", "shearsort ms", "samplesort ms",
               "std::sort ms", "all agree"});
  ParallelExecutor exec(4);
  bool all_agree = true;
  struct Shape {
    NodeId n;
    int r;
    std::int64_t cs_rows, cs_cols;  // columnsort shape for the same total
    std::int64_t sh_rows, sh_cols;  // shearsort mesh
  };
  const Shape shapes[] = {
      {2, 10, 256, 4, 32, 32},      // 1024 keys
      {4, 6, 512, 8, 64, 64},       // 4096 keys
      {2, 16, 8192, 8, 256, 256},   // 65536 keys
      {8, 6, 32768, 8, 512, 512},   // 262144 keys
  };
  for (const Shape& s : shapes) {
    const std::int64_t total = pow_int(s.n, s.r);
    const auto keys = bench::random_keys(total, 11u);

    std::vector<Key> expected = keys;
    const double std_ms =
        bench::time_ms([&] { std::sort(expected.begin(), expected.end()); });

    std::vector<Key> mw = keys;
    const double mw_ms =
        bench::time_ms([&] { (void)multiway_merge_sort(mw, s.n); });

    std::vector<Key> mwf = keys;
    const double mwf_ms =
        bench::time_ms([&] { multiway_merge_sort_fast(mwf, s.n); });

    std::vector<Key> mwp = keys;
    const double mwp_ms =
        bench::time_ms([&] { multiway_merge_sort_fast(mwp, s.n, &exec); });

    std::vector<Key> cs = keys;
    const double cs_ms =
        bench::time_ms([&] { (void)columnsort(cs, s.cs_rows, s.cs_cols); });

    std::vector<Key> bt = keys;
    const double bt_ms = bench::time_ms([&] { (void)batcher_sort(bt); });

    std::vector<Key> sh = keys;
    const double sh_ms =
        bench::time_ms([&] { (void)shearsort(sh, s.sh_rows, s.sh_cols); });
    const std::vector<Key> sh_seq = snake_to_sequence(sh, s.sh_rows, s.sh_cols);

    std::vector<Key> ss = keys;
    const double ss_ms =
        bench::time_ms([&] { (void)samplesort(ss, 16, 42u); });

    const bool agree = mw == expected && mwf == expected && mwp == expected &&
                       cs == expected && bt == expected && sh_seq == expected &&
                       ss == expected;
    all_agree = all_agree && agree;
    table.add_row({fmt(total), fmt(s.n), fmt(s.r), bench::fmt(mw_ms),
                   bench::fmt(mwf_ms), bench::fmt(mwp_ms), bench::fmt(cs_ms),
                   bench::fmt(bt_ms), bench::fmt(sh_ms), bench::fmt(ss_ms),
                   bench::fmt(std_ms), agree ? "yes" : "NO"});
  }
  table.print();
  table.maybe_export_csv("baselines");

  std::printf("\nStructural comparison on 4^6 = 4096 keys:\n");
  {
    auto keys = bench::random_keys(4096, 13u);
    std::vector<Key> mw = keys;
    const MergeStats stats = multiway_merge_sort(mw, 4);
    std::vector<Key> cs = keys;
    const ColumnsortStats cstats = columnsort(cs, 512, 8);
    std::printf("  multiway merge: %lld merges, %lld N^2-key base sorts, %lld"
                " block sorts, %lld transposition phases\n",
                static_cast<long long>(stats.merges),
                static_cast<long long>(stats.base_sorts),
                static_cast<long long>(stats.block_sorts),
                static_cast<long long>(stats.transpositions));
    std::printf("  columnsort:     %d full column-sort rounds over %lld-key"
                " columns, %lld keys routed\n",
                cstats.column_sort_rounds, 512ll,
                static_cast<long long>(cstats.routed_keys));
    std::printf("  -> the merge scheme's only full sorts touch N^2 = 16 keys"
                " at a time;\n     Columnsort repeatedly sorts whole"
                " 512-key columns (the paper's Section 1 argument).\n");
  }
  if (!all_agree) {
    std::printf("\nFAIL: a sort's output disagrees with std::sort"
                " (row marked NO)\n");
    return 1;
  }
  return 0;
}
