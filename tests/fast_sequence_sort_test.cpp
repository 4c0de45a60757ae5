#include "core/fast_sequence_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <random>

#include "core/sequence_sort.hpp"
#include "product/gray_code.hpp"

namespace prodsort {
namespace {

TEST(FastSequenceSortTest, RejectsNonPowerSizes) {
  std::vector<Key> keys(12);
  EXPECT_THROW(multiway_merge_sort_fast(keys, 5), std::invalid_argument);
}

TEST(FastSequenceSortTest, DegenerateSingleDimension) {
  std::vector<Key> keys = {5, 1, 3, 2};
  multiway_merge_sort_fast(keys, 4);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

class FastSortParamTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FastSortParamTest, MatchesReferenceImplementation) {
  const auto [n, r] = GetParam();
  const std::int64_t total = pow_int(n, r);
  std::mt19937 rng(static_cast<unsigned>(n * 41 + r));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Key> keys(static_cast<std::size_t>(total));
    for (Key& k : keys) k = static_cast<Key>(rng() % 997);

    std::vector<Key> reference = keys;
    (void)multiway_merge_sort(reference, static_cast<NodeId>(n));

    std::vector<Key> fast = keys;
    multiway_merge_sort_fast(fast, static_cast<NodeId>(n));

    ASSERT_EQ(fast, reference);
  }
}

TEST_P(FastSortParamTest, ParallelMatchesSerial) {
  const auto [n, r] = GetParam();
  const std::int64_t total = pow_int(n, r);
  std::mt19937 rng(static_cast<unsigned>(n * 43 + r));
  std::vector<Key> keys(static_cast<std::size_t>(total));
  for (Key& k : keys) k = static_cast<Key>(rng());

  std::vector<Key> serial = keys;
  multiway_merge_sort_fast(serial, static_cast<NodeId>(n));

  for (const int threads : {2, 4, 8}) {
    ParallelExecutor exec(threads);
    std::vector<Key> parallel = keys;
    multiway_merge_sort_fast(parallel, static_cast<NodeId>(n), &exec);
    ASSERT_EQ(parallel, serial) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FastSortParamTest,
    ::testing::Values(std::pair<int, int>{2, 2}, std::pair<int, int>{2, 3},
                      std::pair<int, int>{2, 6}, std::pair<int, int>{2, 10},
                      std::pair<int, int>{3, 3}, std::pair<int, int>{3, 5},
                      std::pair<int, int>{4, 4}, std::pair<int, int>{5, 3},
                      std::pair<int, int>{8, 3}, std::pair<int, int>{16, 2}));

TEST(FastSequenceSortTest, ZeroOneSweep) {
  std::mt19937 rng(47);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Key> keys(64);
    for (Key& k : keys) k = static_cast<Key>(rng() & 1u);
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    multiway_merge_sort_fast(keys, 2);
    ASSERT_EQ(keys, expected);
  }
}

TEST(FastSequenceSortTest, ExhaustiveZeroOneAtRadixTwo) {
  // Every 0-1 input of 2^4 keys: by the 0-1 principle this proves the
  // N = 2, r = 4 schedule (merge levels 3 and 4) sorts every input.
  constexpr int kKeys = 16;
  for (std::uint32_t bits = 0; bits < (1u << kKeys); ++bits) {
    std::vector<Key> keys(kKeys);
    for (int i = 0; i < kKeys; ++i)
      keys[static_cast<std::size_t>(i)] = (bits >> i) & 1u;
    multiway_merge_sort_fast(keys, 2);
    const auto ones = static_cast<std::ptrdiff_t>(std::popcount(bits));
    ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end())) << bits;
    ASSERT_EQ(std::count(keys.begin(), keys.end(), Key{1}), ones) << bits;
  }
}

TEST(FastSequenceSortTest, SortAnyKeepsExtremeKeysAtThePadBoundary) {
  // N^(r-1) + 1 or + 2 keys pad to N^r: the last real keys open a group
  // that is otherwise all sentinel.  That group must still be merged
  // (the pad skip is by position, not by value), with real Key-max keys
  // indistinguishable from the pad and Key-min keys that have to travel
  // to the front.
  constexpr Key kMax = std::numeric_limits<Key>::max();
  constexpr Key kMin = std::numeric_limits<Key>::min();
  ParallelExecutor exec(4);
  std::mt19937_64 rng(61);
  for (const NodeId n : {2, 3, 4, 5, 8}) {
    for (const std::size_t extra : {1, 2}) {
      const std::size_t size = static_cast<std::size_t>(pow_int(n, 3)) + extra;
      for (const Key last : {kMax, kMin}) {
        std::vector<Key> keys(size);
        for (Key& k : keys) k = static_cast<Key>(rng() % 1000);
        keys[0] = kMax;
        keys[size - 2] = last == kMax ? kMin : kMax;
        keys[size - 1] = last;
        std::vector<Key> expected = keys;
        std::sort(expected.begin(), expected.end());
        for (ParallelExecutor* executor :
             std::array<ParallelExecutor*, 2>{nullptr, &exec}) {
          std::vector<Key> sorted = keys;
          multiway_sort_any(sorted, n, executor);
          ASSERT_EQ(sorted, expected)
              << "n=" << n << " size=" << size << " last=" << last
              << " threads=" << (executor != nullptr ? 4 : 1);
        }
      }
    }
  }
}

TEST(FastSequenceSortTest, LargeInputWithThreads) {
  const std::int64_t total = pow_int(4, 9);  // 262144
  std::vector<Key> keys(static_cast<std::size_t>(total));
  std::mt19937_64 rng(53);
  for (Key& k : keys) k = static_cast<Key>(rng());
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  ParallelExecutor exec(4);
  multiway_merge_sort_fast(keys, 4, &exec);
  EXPECT_EQ(keys, expected);
}

TEST(FastSequenceSortTest, SortAnyHandlesArbitrarySizes) {
  std::mt19937 rng(59);
  for (const std::int64_t size : {0, 1, 5, 17, 100, 1000, 12345}) {
    std::vector<Key> keys(static_cast<std::size_t>(size));
    for (Key& k : keys) k = static_cast<Key>(rng() % 5000);
    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    multiway_sort_any(keys, 4);
    EXPECT_EQ(keys, expected) << size;
  }
}

TEST(FastSequenceSortTest, SortAnyKeepsRealMaxKeys) {
  // Padding sentinels equal Key-max; genuine Key-max keys must survive.
  std::vector<Key> keys = {5, std::numeric_limits<Key>::max(), 3,
                           std::numeric_limits<Key>::max(), 1, 2, 4, 0, 6,
                           7, 8, 9, 10, 11, 12, 13, 14};
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  multiway_sort_any(keys, 3);
  EXPECT_EQ(keys, expected);
}

TEST(FastSequenceSortTest, SortAnyValidation) {
  std::vector<Key> keys(10);
  EXPECT_THROW(multiway_sort_any(keys, 1), std::invalid_argument);
}

TEST(FastSequenceSortTest, ExtremeKeyValues) {
  std::vector<Key> keys(27);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = (i % 2 == 0) ? std::numeric_limits<Key>::max()
                           : std::numeric_limits<Key>::min();
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  multiway_merge_sort_fast(keys, 3);
  EXPECT_EQ(keys, expected);
}

}  // namespace
}  // namespace prodsort
