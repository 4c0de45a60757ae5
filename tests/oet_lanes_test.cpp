// Differential test of the OET lane kernels (network/oet_lanes.hpp).
//
// Every ISA variant the host supports, the baseline included, runs one
// pass over a lane-major matrix; the reference runs oet_line on each
// lane separately.  Keys and swap counts must be identical for every
// lane count 1-17 (full vectors plus every tail), every line length
// 2-16, duplicate-heavy and extreme keys (INT64_MIN/INT64_MAX stress the
// complement trick the machine uses for descending lines), and
// complemented lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "network/oet_lanes.hpp"

namespace prodsort {
namespace {

enum class Pattern { kUniform, kFewDistinct, kExtremes, kSorted, kReversed };

constexpr Pattern kPatterns[] = {Pattern::kUniform, Pattern::kFewDistinct,
                                 Pattern::kExtremes, Pattern::kSorted,
                                 Pattern::kReversed};

Key draw(Pattern pattern, std::size_t position, std::mt19937_64& rng) {
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  constexpr Key kExtremes[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  switch (pattern) {
    case Pattern::kUniform:
      return static_cast<Key>(rng());
    case Pattern::kFewDistinct:
      return static_cast<Key>(rng() % 3);
    case Pattern::kExtremes:
      return kExtremes[rng() % std::size(kExtremes)];
    case Pattern::kSorted:
      return static_cast<Key>(position);
    case Pattern::kReversed:
      return -static_cast<Key>(position);
  }
  return 0;
}

// A `length x stride` lane-major matrix; lanes [lanes, stride) are
// padding the kernel must not touch.  Lane l is complemented when bit
// l of `complemented` is set, as the machine complements a descending
// line.
std::vector<Key> make_matrix(Pattern pattern, int length, std::size_t lanes,
                             std::size_t stride, std::uint32_t complemented,
                             std::mt19937_64& rng) {
  std::vector<Key> m(static_cast<std::size_t>(length) * stride);
  for (std::size_t j = 0; j < static_cast<std::size_t>(length); ++j)
    for (std::size_t l = 0; l < stride; ++l) {
      const Key key = draw(pattern, j, rng);
      const bool flip = l < lanes && ((complemented >> l) & 1u) != 0;
      m[j * stride + l] = flip ? ~key : key;
    }
  return m;
}

// oet_line on each lane separately.
std::int64_t reference_pass(std::vector<Key>& m, int length,
                            std::size_t lanes, std::size_t stride) {
  std::int64_t swaps = 0;
  std::vector<Key> line(static_cast<std::size_t>(length));
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t j = 0; j < line.size(); ++j) line[j] = m[j * stride + l];
    swaps += oet_line(line.data(), length);
    for (std::size_t j = 0; j < line.size(); ++j) m[j * stride + l] = line[j];
  }
  return swaps;
}

TEST(OetLanesTest, BaselineIsLastAndDispatchPicksTheFirst) {
  const std::vector<OETLaneKernel> kernels = oet_lane_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(std::string(kernels.back().name), "baseline");
  EXPECT_EQ(std::string(oet_lane_kernel().name), kernels.front().name);
  for (const OETLaneKernel& kernel : kernels) EXPECT_GE(kernel.width, 1u);
}

TEST(OetLanesTest, EveryVariantMatchesPerLineReference) {
  std::mt19937_64 rng(2024);
  for (const OETLaneKernel& kernel : oet_lane_kernels()) {
    for (std::size_t lanes = 1; lanes <= 17; ++lanes) {
      for (int length = 2; length <= 16; ++length) {
        for (const Pattern pattern : kPatterns) {
          // No lane, alternate lanes, and every lane complemented.
          for (const std::uint32_t complemented :
               {0u, 0x15555u, 0x1ffffu}) {
            const std::size_t stride = lanes + (length % 3);
            std::vector<Key> actual =
                make_matrix(pattern, length, lanes, stride, complemented, rng);
            std::vector<Key> expected = actual;
            const std::int64_t expected_swaps =
                reference_pass(expected, length, lanes, stride);
            const std::int64_t swaps =
                kernel.run(actual.data(), length, lanes, stride);
            const std::string label =
                std::string(kernel.name) + " lanes=" + std::to_string(lanes) +
                " length=" + std::to_string(length) +
                " pattern=" + std::to_string(static_cast<int>(pattern)) +
                " complemented=" + std::to_string(complemented);
            ASSERT_EQ(actual, expected) << label;
            ASSERT_EQ(swaps, expected_swaps) << label;
            // The pass really sorted: every lane ascends.
            for (std::size_t l = 0; l < lanes; ++l)
              for (std::size_t j = 0; j + 1 < static_cast<std::size_t>(length);
                   ++j)
                ASSERT_LE(actual[j * stride + l], actual[(j + 1) * stride + l])
                    << label;
          }
        }
      }
    }
  }
}

TEST(OetLanesTest, DegenerateShapesSwapNothing) {
  for (const OETLaneKernel& kernel : oet_lane_kernels()) {
    std::vector<Key> m = {3, 2, 1};
    EXPECT_EQ(kernel.run(m.data(), 0, 3, 3), 0) << kernel.name;
    EXPECT_EQ(kernel.run(m.data(), 1, 3, 3), 0) << kernel.name;
    EXPECT_EQ(kernel.run(m.data(), 3, 0, 1), 0) << kernel.name;
    EXPECT_EQ(m, (std::vector<Key>{3, 2, 1})) << kernel.name;
  }
}

}  // namespace
}  // namespace prodsort
