#pragma once

// The odd-even transposition kernels behind Machine::run_oet_schedule's
// tiled path.
//
// oet_line sorts one line held contiguously: the lane kernels' scalar
// reference.  A lane kernel sorts many equal-length lines at once, held
// lane-major: row j of a `length x stride` matrix holds position j of
// every line (lane), so phase p of the pass is a min/max of row i
// against row i+1 across all lanes, for i = p % 2, p % 2 + 2, ...
// Within one shearsort pass every row (or column) of a PG_2 tile runs
// the same data-oblivious comparator sequence, so the lines of a pass
// are independent lanes of one network.
//
// Every kernel sorts each lane toward its last position, returns one
// swap per exchanging pair, and ends the pass once an even and an odd
// phase in a row swap nothing: then every lane is sorted, and a sorted
// lane swaps nothing, so the count is the full pass's.
//
// The lane kernel is built in ISA variants — AVX-512F and AVX2 in gcc
// builds for x86-64, and a portable baseline in every build —
// and oet_lane_kernel() picks the best one the host's CPU supports,
// once, on first use.  Nothing else selects it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/multiway_merge.hpp"  // Key

namespace prodsort {

/// One full pass over the line `v[0, length)`; returns the swaps made.
/// Branch-free: the swap is a masked XOR (gcc turns std::min/std::max
/// here into a data-dependent branch, which mispredicts on unsorted
/// keys).
inline std::int64_t oet_line(Key* v, int length) {
  std::int64_t swaps = 0;
  int quiet = 0;  // consecutive phases without a swap
  for (int phase = 0; phase < length && quiet < 2; ++phase) {
    std::int64_t phase_swaps = 0;
    for (int i = phase & 1; i + 1 < length; i += 2) {
      const Key a = v[i];
      const Key b = v[i + 1];
      const Key greater = a > b;
      const Key flip = (a ^ b) & -greater;
      phase_swaps += greater;
      v[i] = a ^ flip;
      v[i + 1] = b ^ flip;
    }
    swaps += phase_swaps;
    quiet = phase_swaps == 0 ? quiet + 1 : 0;
  }
  return swaps;
}

/// One ISA variant of the lane kernel.
struct OETLaneKernel {
  const char* name;   ///< "avx512f", "avx2" or "baseline"
  std::size_t width;  ///< keys in the variant's narrowest vector: a
                      ///< family with fewer lines does not fill it on
                      ///< its own (see CompiledOET)
  /// One full pass over lanes [0, lanes) of `length` rows, row j at
  /// `rows + j * stride` (lanes <= stride); returns the swaps made.
  std::int64_t (*run)(Key* rows, int length, std::size_t lanes,
                      std::size_t stride);
};

/// The variant the machine runs: the first of oet_lane_kernels().
[[nodiscard]] const OETLaneKernel& oet_lane_kernel();

/// Every variant this build compiled and the host's CPU supports, best
/// first; the baseline is always last.
[[nodiscard]] std::vector<OETLaneKernel> oet_lane_kernels();

}  // namespace prodsort
