#pragma once

// Snake order (Definition 2) for product graphs and their views.
//
// The snake order of PG_r coincides with the N-ary Gray-code sequence Q_r
// over node labels (Section 2), so rank maps reduce to gray_rank /
// gray_tuple on the digit tuple.  For a view, ranks are local: local
// dimension j = global dimension lo+j-1, and the rank is the Gray rank of
// the free-digit block.
//
// A loop over consecutive ranks walks the snake with SnakeWalker (one
// amortised O(1) digit step per rank); per-rank decoding is for random
// access.

#include <array>
#include <cstdint>

#include "product/gray_code.hpp"
#include "product/subgraph_view.hpp"

namespace prodsort {

/// Snake rank of `node` within the whole graph.
[[nodiscard]] PNode snake_rank(const ProductGraph& pg, PNode node);

/// Node at snake rank `rank` of the whole graph.
[[nodiscard]] PNode node_at_snake_rank(const ProductGraph& pg, PNode rank);

/// Snake rank of `node` within view `v` (node must belong to the view).
[[nodiscard]] PNode view_snake_rank(const ProductGraph& pg, const ViewSpec& v,
                                    PNode node);

/// Node of view `v` at local snake rank `rank`.
[[nodiscard]] PNode view_node_at_snake_rank(const ProductGraph& pg,
                                            const ViewSpec& v, PNode rank);

/// Walks the snake of a view rank by rank.  Q_r is the reflected N-ary
/// Gray code, so stepping from rank k to k+1 changes one digit by one:
/// the lowest digit not yet at the end of its sweep moves one step in
/// its current direction, and every lower digit (each at its end) turns
/// around.  A step therefore costs amortised O(1) — about N/(N-1) digit
/// checks — instead of the O(r) decode of view_node_at_snake_rank.
class SnakeWalker {
 public:
  /// Starts at local snake rank `rank` of view `v` (one decode).
  SnakeWalker(const ProductGraph& pg, const ViewSpec& v, PNode rank = 0);

  [[nodiscard]] PNode rank() const noexcept { return rank_; }
  [[nodiscard]] PNode node() const noexcept { return node_; }

  /// Steps to rank() + 1.  Past the last rank node() stays on the last
  /// node, so a loop may step once after its final visit.
  void next() noexcept {
    ++rank_;
    for (int j = 0; j < dims_; ++j) {
      const std::uint64_t bit = std::uint64_t{1} << j;
      const bool down = (down_ & bit) != 0;
      if (digits_[static_cast<std::size_t>(j)] == (down ? 0 : radix_ - 1)) {
        down_ ^= bit;  // this digit's sweep is over: it turns around
        continue;
      }
      digits_[static_cast<std::size_t>(j)] += down ? -1 : 1;
      node_ += down ? -weights_[static_cast<std::size_t>(j)]
                    : weights_[static_cast<std::size_t>(j)];
      return;
    }
  }

 private:
  static constexpr int kMaxDims = 62;  ///< ProductGraph's cap on r

  NodeId radix_;
  int dims_;
  PNode rank_;
  PNode node_;
  std::uint64_t down_ = 0;  ///< bit j: digit j currently sweeps downward
  std::array<NodeId, kMaxDims> digits_{};  ///< local digits, dimension lo first
  std::array<PNode, kMaxDims> weights_{};  ///< global weight of each digit
};

/// Parity of the Hamming weight of the digits of `node` at dimensions
/// dim_lo..dim_hi: false = even.  For a PG_2 block at view dims lo..lo+1,
/// the parity of the remaining free digits (lo+2..hi) decides whether the
/// block appears forward (even) or reversed (odd) in the enclosing snake.
[[nodiscard]] bool weight_parity(const ProductGraph& pg, PNode node,
                                 int dim_lo, int dim_hi);

}  // namespace prodsort
