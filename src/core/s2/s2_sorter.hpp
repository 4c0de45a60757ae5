#pragma once

// The S2(N) primitive: "an algorithm which can sort N^2 keys" on the
// two-dimensional product PG_2 (Section 3.2).  The merge algorithm is
// parameterized by it; its efficiency dominates Theorem 1's bound.
//
// Three implementations are provided:
//
//  * OracleS2     — sorts a view instantly and charges the analytic cost
//                   the paper cites for the network at hand (Schnorr-
//                   Shamir 3N on grids, Kunde 2.5N on tori, 3 on the
//                   4-node hypercube, ...).  Reproduces the paper's
//                   formula-level numbers exactly.
//  * ShearsortS2  — executable O(N log N)-phase shearsort over the snake
//                   layout, valid for every factor graph.
//  * SnakeOETS2   — executable N^2-phase odd-even transposition along the
//                   snake; the simplest correct sorter, used as a test
//                   oracle for the executable path.
//
// A sorter operates on *many* disjoint 2-D views at once, in lockstep,
// because the enclosing algorithm runs them as one parallel phase: the
// executed step time is that of a single view.
//
// A sorter has one way to say what it runs: oet_schedule(N), its
// compare-exchange schedule in view-local tile coordinates
// (network/oet_schedule.hpp), or nothing.  The two executable odd-even
// sorters describe theirs; a compiled sort plan (core/sort_plan.hpp)
// checks it once per (topology, sorter) and runs every S2 phase of
// every sort from it through Machine::run_oet_schedule, never calling
// sort_views.  A sorter that describes nothing — OracleS2, NetworkS2,
// or a wrapper such as a timing shim — is run through sort_views, once
// per S2 phase.  sort_views stays the way to sort views directly; the
// two odd-even sorters implement it by running their own schedule.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "network/machine.hpp"

namespace prodsort {

class S2Sorter {
 public:
  virtual ~S2Sorter() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Analytic time of one S2 phase, charged to CostModel::formula_time.
  [[nodiscard]] virtual double phase_cost(const LabeledFactor& factor) const {
    return factor.s2_cost;
  }

  /// The sorter's schedule on an N x N tile (one view), identical in
  /// every view of every phase, or nullopt when the sorter does not
  /// describe one.  Default: nullopt.
  [[nodiscard]] virtual std::optional<OETSchedule> oet_schedule(
      NodeId n) const {
    (void)n;
    return std::nullopt;
  }

  /// Sorts every view (each with exactly two free dimensions) into its
  /// local snake order; `descending[i]` flips view i's direction.  Views
  /// must be disjoint.  Executed in lockstep across views.  The
  /// executable sorters throw std::invalid_argument when a view does not
  /// have exactly two free dimensions or `descending` does not hold one
  /// flag per view.
  virtual void sort_views(Machine& machine, std::span<const ViewSpec> views,
                          const std::vector<bool>& descending) const = 0;

  /// Convenience: sort one view.
  void sort_view(Machine& machine, const ViewSpec& view,
                 bool descending = false) const;
};

}  // namespace prodsort
