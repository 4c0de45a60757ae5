#pragma once

// Seeded input generator shared by every workload of the benchmark.
//
// A workload's inputs are a pure function of (family, size, seed): the
// same seed always yields the same keys.  The families are the classic
// sort-testing shapes (uniform, few-distinct, sorted, reversed,
// organ-pipe) plus McIlroy's quicksort adversary ("A Killer Adversary
// for Quicksort", 1999), generated once against std::sort and frozen.
// Keys stay below 2^48 so no input collides with the maximal sentinel
// keys the sequence engine and the stream pad with.

#include <cstdint>
#include <vector>

#include "core/multiway_merge.hpp"  // Key, NodeId

namespace perfbench {

using prodsort::Key;
using prodsort::NodeId;

enum class Family {
  kUniform,
  kFew2,       ///< two distinct values
  kFew16,      ///< sixteen distinct values
  kSorted,     ///< ascending, with occasional equal neighbours
  kReversed,   ///< descending
  kOrganPipe,  ///< ascending first half, descending second half
  kAdversary,  ///< McIlroy's adversary against std::sort, frozen
};
inline constexpr int kFamilyCount = 7;

[[nodiscard]] Family family_at(int index);  ///< index taken mod kFamilyCount
[[nodiscard]] const char* family_name(Family family);

/// splitmix64 finaliser over (a, b): the seed-mixing primitive.  The
/// benchmark keeps its own rather than the library's, so its inputs
/// never move when library hashing changes.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// `n` keys of `family`, a pure function of (family, n, seed).
[[nodiscard]] std::vector<Key> make_keys(Family family, std::size_t n,
                                         std::uint64_t seed);

/// One sequence-engine input shape: the radix and the key count.
struct SeqCase {
  NodeId n = 2;
  std::size_t size = 0;
  Family family = Family::kUniform;
};

/// The fixed sequence-engine case list, independent of the seed: for
/// each N in {2, 4, 8} an exact power N^r, N^r - 1 (one sentinel pad),
/// N^(r-1) + 1 (padding to the next power), and a size below N^2 that
/// falls through to std::sort.  Families rotate over the list so every
/// family appears.
[[nodiscard]] std::vector<SeqCase> seq_cases();

/// Keys multiway_sort_any pads `size` keys with at radix `n` (0 when
/// the size is already a power or falls through to std::sort).
[[nodiscard]] std::size_t pad_keys(std::size_t size, NodeId n);

}  // namespace perfbench
