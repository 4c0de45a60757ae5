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
// executed step time is that of a single view.  The two executable
// odd-even sorters describe their phases once, in view-local tile
// coordinates (network/oet_schedule.hpp), and hand that descriptor to
// Machine::run_oet_schedule, which chooses how to execute it.

#include <memory>
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
