#pragma once

// The compare-exchange schedule of an executable S2 sort, written once
// in view-local coordinates (Section 4: every S2 phase acts inside
// disjoint PG_2 subgraphs, identically in each).
//
// A view's N^2 nodes form a tile addressed by local offset
// `digit(lo) + N * digit(hi)`; for a view with free dimensions lo..lo+1
// the global node is `base + offset * weight(lo)`.  The schedule is a
// short list of odd-even transposition *passes*.  A pass runs `length`
// synchronous phases over one family of equal-length lines through the
// tile; phase p compare-exchanges positions (i, i+1) of every line for
// i = p % 2, p % 2 + 2, ...  A line sorts toward its last position unless
// its `flipped` bit XOR the view's `descending` flag is set, which
// inverts every pair.
//
//   shearsort:  families {rows, columns}; passes rows, cols, ..., rows
//   snake-OET:  family {the snake}; one pass of N^2 phases
//
// Machine::run_oet_schedule consumes the descriptor (machine.hpp).

#include <cstdint>
#include <vector>

namespace prodsort {

/// A family of equal-length lines through an N x N tile.
struct OETLines {
  int length = 0;                     ///< positions = phases per pass
  std::vector<std::int32_t> offsets;  ///< tile offsets, `length` per line
  std::vector<std::uint8_t> flipped;  ///< per line: sorts toward position 0

  [[nodiscard]] std::size_t lines() const noexcept { return flipped.size(); }
};

/// The tile side is the factor size N and every phase is charged the
/// factor's dilation in hops; the machine reads both from its graph.
struct OETSchedule {
  std::vector<OETLines> families;
  std::vector<int> passes;         ///< family index of each pass, in order
};

}  // namespace prodsort
