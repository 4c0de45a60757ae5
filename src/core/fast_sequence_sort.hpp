#pragma once

// Fast sequence-level engine for the Section 3.3 sort: the same
// merge tree and the same Step 1-4 semantics as multiway_merge_sort,
// run level-synchronously.  The reference recurses depth-first, one
// merge at a time; here, for every merge level k and every recursion
// depth inside it, each Step is one pass over all groups and sub-merges
// at once (they work on disjoint segments, so the order is free):
//
//   * Step 1 descends as row-contiguous transposes that ping-pong
//     between the keys and one scratch buffer of the same size.  The
//     last one is fused with the base case: each N^2-key column is N
//     sorted runs of N keys, merged straight from the snake.
//   * Step 3 is never written out.  Block z of D holds C_v[zN, zN+N)
//     for every column v, N sorted runs, so Step 3 and Step 4's first
//     block sort are one N-way merge from the columns.
//   * Every block is stored ascending; the paper's descending odd
//     blocks are those read backwards.  An odd-even transposition step
//     therefore pairs position t of one block with position B-1-t of
//     its neighbour, both steps are branch-free min/max passes, and the
//     second block sort is ascending everywhere, so no block is
//     reversed at the end.
//
// For N = 2 every block kernel is a branch-free 4-key network.  For
// other N, the N-way merges are branch-free merges of sorted runs, and
// the second block sort, which mostly meets a few long runs, is
// std::sort; each is O(B log B) in the worst case for B = N^2 keys.  The
// engine allocates its scratch buffer and per-thread tiles once per
// call, nothing per level or group.  With a ParallelExecutor every pass
// is one parallel_for over contiguous ranges of its units (never
// nested); outputs are bit-identical for any thread count.

#include "core/multiway_merge.hpp"
#include "network/parallel_executor.hpp"

namespace prodsort {

/// Sorts `keys` (size N^r) in place; behaviorally identical to
/// multiway_merge_sort.  `executor` is optional.
void multiway_merge_sort_fast(std::vector<Key>& keys, NodeId n,
                              ParallelExecutor* executor = nullptr);

/// Arbitrary-size convenience wrapper: pads to the next power of N with
/// maximal sentinels, runs the fast engine, truncates.  Sizes below N^2
/// fall through to std::sort.  Groups that lie wholly in the pad are
/// skipped at every merge level; the test is by position, so real
/// Key-max keys are always merged.
void multiway_sort_any(std::vector<Key>& keys, NodeId n,
                       ParallelExecutor* executor = nullptr);

}  // namespace prodsort
