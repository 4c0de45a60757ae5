#pragma once

// The two kinds of phase a compiled sort plan (core/sort_plan.hpp) hands
// the machine, each checked once when it is built so that Machine can run
// it any number of times without re-checking or re-deriving anything.
//
//  * CompiledOET — an S2 sorter's view-local OETSchedule
//    (network/oet_schedule.hpp) checked against one tile side, with the
//    tiled path's per-family layouts and the per-view charges worked out.
//  * TileViews — the disjoint PG_2 views of one S2 phase and their sort
//    directions, checked against one graph shape.
//  * BlockTransposition — one Step-4 odd-even transposition phase held as
//    (low, high) block base pairs: Section 4 pairs corresponding nodes of
//    two PG_2 blocks, and node k of a block at dimensions {lo, lo+1} sits
//    at base + k * weight(lo) in every block, so the whole phase is the
//    base pairs plus that one shared stride, O(blocks) and not O(pairs).
//
// Machine::run_oet_schedule and Machine::compare_exchange_blocks run
// them (machine.hpp).

#include <cstdint>
#include <vector>

#include "network/oet_schedule.hpp"
#include "network/phase_observer.hpp"  // CEPair
#include "product/subgraph_view.hpp"

namespace prodsort {

class Machine;

class CompiledOET {
 public:
  /// Checks `schedule` for an n x n tile: every family's offsets hold
  /// `length` per line inside the tile, no two positions of one family
  /// share an offset (both execution paths run a family's lines side by
  /// side), and every pass names a family.  std::invalid_argument
  /// otherwise.
  CompiledOET(OETSchedule schedule, NodeId n);

  [[nodiscard]] const OETSchedule& schedule() const noexcept {
    return schedule_;
  }
  [[nodiscard]] NodeId side() const noexcept { return n_; }
  /// Synchronous phases of one run (every pass's length, summed).
  [[nodiscard]] std::int64_t phases() const noexcept { return phases_; }
  /// Compare-exchange pairs one view issues over the whole run.
  [[nodiscard]] std::int64_t pairs_per_view() const noexcept {
    return pairs_per_view_;
  }
  /// Bytes held on the heap.
  [[nodiscard]] std::size_t heap_bytes() const noexcept;

 private:
  friend class Machine;

  /// How the tiled path runs a line family on a tile buffer (row-major,
  /// n x n, indexed by tile offset).
  enum class Layout : std::uint8_t {
    kInPlace,  // lane l holds offsets l, l + n, ...: the buffer already
               // is its lane-major matrix (ShearsortS2's columns)
    kLanes,    // gathered into a lane-major matrix and scattered back
  };

  OETSchedule schedule_;
  NodeId n_;
  std::vector<Layout> layouts_;  ///< per family, for the lane kernel's width
  /// Views whose lines run as the lanes of one matrix: the kernel's
  /// width when every family is thinner than a vector (SnakeOETS2's
  /// snake), else 1.
  std::size_t group_ = 1;
  std::size_t matrix_size_ = 0;  ///< largest lane matrix, in keys
  std::int64_t phases_ = 0;
  std::int64_t pairs_per_view_ = 0;
};

class TileViews {
 public:
  /// Checks that every view has exactly two free dimensions of `pg` and
  /// a base with zero free digits, and that `descending` holds one flag
  /// per view (std::invalid_argument otherwise).  Disjointness is not
  /// checked here; the per-phase path's sweep checks it when enabled.
  TileViews(const ProductGraph& pg, std::vector<ViewSpec> views,
            std::vector<bool> descending);

  [[nodiscard]] const std::vector<ViewSpec>& views() const noexcept {
    return views_;
  }
  [[nodiscard]] const std::vector<bool>& descending() const noexcept {
    return descending_;
  }
  /// True when these views were checked against a graph of pg's shape.
  [[nodiscard]] bool fits(const ProductGraph& pg) const noexcept {
    return pg.radix() == radix_ && pg.dims() == dims_;
  }
  /// Bytes held on the heap.
  [[nodiscard]] std::size_t heap_bytes() const noexcept;

 private:
  std::vector<ViewSpec> views_;
  std::vector<bool> descending_;
  NodeId radix_;
  int dims_;
};

class BlockTransposition {
 public:
  /// Pairs node base + k * weight(lo) of block low[i] with the same node
  /// of block high[i], for k < N^2, the smaller key to the low block.
  /// Every base must be a node whose digits at dimensions lo and lo+1
  /// are zero, 1 <= lo < dims (std::invalid_argument otherwise).
  /// Disjointness of the blocks is not checked here; the per-phase
  /// path's sweep checks it when enabled.
  BlockTransposition(const ProductGraph& pg, int lo,
                     std::vector<PNode> low, std::vector<PNode> high);

  [[nodiscard]] const std::vector<PNode>& low() const noexcept { return low_; }
  [[nodiscard]] const std::vector<PNode>& high() const noexcept {
    return high_;
  }
  /// Node stride inside a block: weight(lo).
  [[nodiscard]] PNode stride() const noexcept { return stride_; }
  /// Nodes per block: N^2.
  [[nodiscard]] PNode block_nodes() const noexcept { return block_nodes_; }
  /// Compare-exchange pairs of the phase.
  [[nodiscard]] std::size_t pairs() const noexcept {
    return low_.size() * static_cast<std::size_t>(block_nodes_);
  }
  /// The phase's pair list: block pair by block pair, node by node.
  [[nodiscard]] std::vector<CEPair> expand() const;
  [[nodiscard]] bool fits(const ProductGraph& pg) const noexcept {
    return pg.radix() == radix_ && pg.dims() == dims_;
  }
  /// Bytes held on the heap.
  [[nodiscard]] std::size_t heap_bytes() const noexcept;

 private:
  std::vector<PNode> low_;
  std::vector<PNode> high_;
  PNode stride_;
  PNode block_nodes_;
  NodeId radix_;
  int dims_;
};

}  // namespace prodsort
