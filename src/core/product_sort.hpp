#pragma once

// Section 4: the multiway-merge sorting algorithm on a homogeneous
// product network, phase-synchronous across the whole machine.
//
// The driver realizes Section 3.3 on PG_r:
//   1. one S2 phase sorts every PG_2 subgraph at dimensions {1,2};
//   2. for k = 3..r, merge_level(1, k) merges, inside every PG_k subgraph
//      at dimensions {1..k}, the N snake-sorted sequences held by its
//      [u]PG_{k-1}^k children.
//
// merge_level(lo, hi) is Section 4's merge on every view with free
// dimensions lo..hi simultaneously:
//   Step 1/3 are free (the Gray-code subsequence identity of Section 2);
//   Step 2 is the recursive call merge_level(lo+1, hi) (base: one S2
//          phase over the two-dimensional views);
//   Step 4 sorts the PG_2 blocks at dimensions {lo, lo+1} in directions
//          alternating with the Gray parity of their group labels, runs
//          two odd-even transposition phases between group-consecutive
//          blocks (partners differ by one in a single digit: adjacent for
//          Hamiltonian-labeled factors, a routed exchange otherwise), and
//          re-sorts the blocks.
//
// Phase counts are exactly Lemma 3 / Theorem 1: merge_level with k free
// dims issues 2k-3 S2 phases and 2(k-2) transposition phases; the whole
// sort issues (r-1)^2 and (r-1)(r-2).  The phase list depends only on
// the topology and the S2 sorter, so it is built once as a SortPlan
// (core/sort_plan.hpp) and run.

#include "core/complexity.hpp"
#include "core/s2/s2_sorter.hpp"
#include "core/sort_plan.hpp"  // SortPlan, PhaseRecord
#include "network/machine.hpp"

namespace prodsort {

struct SortOptions {
  const S2Sorter* s2 = nullptr;  ///< default: OracleS2
  /// After each merge level, assert every merged view is snake-sorted
  /// (testing aid; throws std::logic_error on violation).
  bool validate_levels = false;
  /// If set, every phase is appended here in execution order.
  std::vector<PhaseRecord>* trace = nullptr;
};

struct SortReport {
  CostModel cost;                ///< measured
  ComplexityPrediction predicted;///< Theorem 1
};

/// Sorts the machine's keys into snake order.  Requires r >= 2.  Builds
/// SortPlan(machine.graph(), options.s2) and runs it.
SortReport sort_product_network(Machine& machine, const SortOptions& options = {});

/// The same sort from a plan the caller built once (core/sort_plan.hpp):
/// callers that sort many inputs on one topology pay the plan's build
/// once.  The plan fixes the sorter, so options.s2 is not read.  The
/// machine must be built on the plan's graph (std::invalid_argument
/// otherwise).
SortReport sort_product_network(Machine& machine, const SortPlan& plan,
                                const SortOptions& options = {});

/// Section 4's multiway merge applied to every view with free dimensions
/// lo..hi at once (exposed for Lemma 3 tests).  Preconditions: every
/// fix_high child of every such view is snake-sorted.
void merge_level(Machine& machine, int lo, int hi, const S2Sorter& s2);

/// One Step 4 odd-even transposition phase over every (lo..hi) view:
/// corresponding nodes of group-consecutive PG_2 blocks (z, z+1) for
/// z = parity (mod 2); min lands on the lower block.  Held as block base
/// pairs (network/plan_phases.hpp), parent view by parent view, z by z.
[[nodiscard]] BlockTransposition transposition_blocks(const ProductGraph& pg,
                                                      int lo, int hi,
                                                      int parity);

/// transposition_blocks(pg, lo, hi, parity).expand(): the phase's pairs,
/// parent view by parent view, z by z, node by node.  Exposed for the
/// block-mode driver and tests.
[[nodiscard]] std::vector<CEPair> transposition_pairs(const ProductGraph& pg,
                                                      int lo, int hi,
                                                      int parity);

/// Directions of Step 4's block sorts for the given PG_2 blocks inside
/// (lo..hi) views: descending iff the Gray parity of the group label
/// (digits lo+2..hi) is odd.
[[nodiscard]] std::vector<bool> block_directions(const ProductGraph& pg,
                                                 std::span<const ViewSpec> blocks,
                                                 int lo, int hi);

}  // namespace prodsort
