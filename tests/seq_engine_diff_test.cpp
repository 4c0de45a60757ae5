// Differential test of the sequence engine over the benchmark's input
// families (perfbench/src/inputs.cpp, compiled in read-only): uniform,
// few-distinct, sorted, reversed, organ-pipe and the frozen McIlroy
// adversary, at every size where multiway_sort_any changes behaviour.
// multiway_sort_any must equal std::sort, multiway_merge_sort_fast must
// equal the reference multiway_merge_sort, and every ParallelExecutor
// run must be bit-identical to the serial one.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/fast_sequence_sort.hpp"
#include "core/sequence_sort.hpp"
#include "inputs.hpp"
#include "network/parallel_executor.hpp"
#include "product/gray_code.hpp"

namespace prodsort {
namespace {

struct Shape {
  NodeId n;
  int r;  ///< the largest power tried is N^r
};

// N = 2 and N = 4, 8 take different kernels (fixed 4-key networks vs
// run merges); N = 3, 5 have odd block counts per segment.
constexpr Shape kShapes[] = {{2, 10}, {3, 6}, {4, 5}, {5, 4}, {8, 4}};

// N^r, N^r - 1 (one sentinel), N^(r-1) + 1 (padded to N^r), N^2 - 1
// (falls through to std::sort) and N^2 (the initial block sort alone).
std::vector<std::size_t> cutoff_sizes(const Shape& s) {
  const auto power = static_cast<std::size_t>(pow_int(s.n, s.r));
  const auto n = static_cast<std::size_t>(s.n);
  return {power, power - 1, power / n + 1, n * n - 1, n * n};
}

std::string label(const Shape& s, std::size_t size, perfbench::Family family) {
  return "N=" + std::to_string(s.n) + " size=" + std::to_string(size) + " " +
         perfbench::family_name(family);
}

class SeqEngineDiffTest : public ::testing::Test {
 protected:
  SeqEngineDiffTest() {
    for (const int threads : {1, 2, 4})
      executors_.push_back(std::make_unique<ParallelExecutor>(threads));
  }

  std::vector<std::unique_ptr<ParallelExecutor>> executors_;
};

TEST_F(SeqEngineDiffTest, SortAnyMatchesStdSortAtEveryCutoff) {
  for (const Shape& s : kShapes) {
    for (const std::size_t size : cutoff_sizes(s)) {
      for (int f = 0; f < perfbench::kFamilyCount; ++f) {
        const perfbench::Family family = perfbench::family_at(f);
        const std::vector<Key> input =
            perfbench::make_keys(family, size, 17 + f);
        std::vector<Key> expected = input;
        std::sort(expected.begin(), expected.end());

        std::vector<Key> serial = input;
        multiway_sort_any(serial, s.n);
        ASSERT_EQ(serial, expected) << label(s, size, family);
        for (const auto& exec : executors_) {
          std::vector<Key> parallel = input;
          multiway_sort_any(parallel, s.n, exec.get());
          ASSERT_EQ(parallel, serial)
              << label(s, size, family) << " threads=" << exec->num_threads();
        }
      }
    }
  }
}

TEST_F(SeqEngineDiffTest, FastEngineMatchesReferenceAtPowers) {
  for (const Shape& s : kShapes) {
    for (int r = 2; r <= s.r; ++r) {
      const auto size = static_cast<std::size_t>(pow_int(s.n, r));
      for (int f = 0; f < perfbench::kFamilyCount; ++f) {
        const perfbench::Family family = perfbench::family_at(f);
        const std::vector<Key> input =
            perfbench::make_keys(family, size, 29 + f);
        std::vector<Key> reference = input;
        (void)multiway_merge_sort(reference, s.n);

        std::vector<Key> serial = input;
        multiway_merge_sort_fast(serial, s.n);
        ASSERT_EQ(serial, reference) << label(s, size, family);
        for (const auto& exec : executors_) {
          std::vector<Key> parallel = input;
          multiway_merge_sort_fast(parallel, s.n, exec.get());
          ASSERT_EQ(parallel, serial)
              << label(s, size, family) << " threads=" << exec->num_threads();
        }
      }
    }
  }
}

}  // namespace
}  // namespace prodsort
