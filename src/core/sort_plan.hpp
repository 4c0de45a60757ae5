#pragma once

// A compiled sort plan: the Theorem-1 phase list of one
// sort_product_network call on one ProductGraph with one S2 sorter,
// built and checked once and run any number of times.
//
// Section 4 runs every phase inside disjoint PG_2 subgraphs, acting the
// same way in each, so the whole phase list is a constant of (topology,
// S2 sorter) and never depends on the keys.  The plan holds it in
// O(phases + views) space, never O(pairs):
//
//  * an S2 phase: its views and their sort directions (TileViews); the
//    sorter's schedule (S2Sorter::oet_schedule), checked once as a
//    CompiledOET, is shared by every S2 phase of the plan;
//  * a transposition phase: Step 4's (lo, hi, parity) as block base
//    pairs and the one in-block stride (BlockTransposition).
//
// Running the plan is the algorithm: sort_product_network builds one and
// runs it, and a caller that sorts many inputs on one topology (the
// sort service's backends) builds one and passes it to every sort.  A
// plain machine runs each phase as built (Machine::run_oet_schedule's
// tiled path, Machine::compare_exchange_blocks in place); a machine with
// a fault model, TMR, a key-reading observer or the disjointness sweep
// expands the same phases into today's per-phase pair lists, so every
// observer, fault decision and vote sees the same pairs in the same
// order.  A sorter that describes no schedule (OracleS2, NetworkS2, a
// forwarding wrapper) runs through its sort_views once per S2 phase.

#include <cstddef>
#include <optional>
#include <variant>
#include <vector>

#include "core/s2/s2_sorter.hpp"
#include "network/plan_phases.hpp"

namespace prodsort {

/// One entry of the phase-schedule trace: what ran, where, and at what
/// charged cost.  The trace is the algorithm's timeline — examples print
/// it, tests check it against the Lemma 3 schedule.
struct PhaseRecord {
  enum class Kind { kS2Sort, kTransposition };
  Kind kind = Kind::kS2Sort;
  int lo = 0;       ///< free-range of the merge level that issued it
  int hi = 0;
  double weight = 0;///< charged cost (S2(N) or R(N))
  std::size_t units = 0;  ///< parallel sub-operations (views or pairs)
};

class SortPlan {
 public:
  /// The phases of sorting `pg` (r >= 2, std::invalid_argument
  /// otherwise) with `s2` (OracleS2 when null).  Both are borrowed and
  /// must outlive the plan.  Throws what S2Sorter::phase_cost throws for
  /// `pg`'s factor, and std::invalid_argument for a schedule
  /// CompiledOET rejects.
  explicit SortPlan(const ProductGraph& pg, const S2Sorter* s2 = nullptr);

  /// Runs every phase on `machine`, in order, charging the Lemma 3
  /// clock as it goes; appends each phase to `trace` when set.  With
  /// `validate_levels`, checks after each merge level k that every
  /// (1..k) view is snake-sorted (std::logic_error otherwise).
  /// std::invalid_argument when `machine` was not built on this plan's
  /// ProductGraph object.
  void run(Machine& machine, std::vector<PhaseRecord>* trace = nullptr,
           bool validate_levels = false) const;

  [[nodiscard]] const ProductGraph& graph() const noexcept { return *pg_; }
  /// True when the sorter described its schedule and the plan runs it
  /// itself; false when it calls sort_views.
  [[nodiscard]] bool compiled() const noexcept { return schedule_.has_value(); }
  [[nodiscard]] std::size_t phases() const noexcept { return phases_.size(); }
  /// Bytes the plan holds, its own object and its heap together.
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  friend void merge_level(Machine& machine, int lo, int hi, const S2Sorter& s2);

  struct Phase {
    int lo;
    int hi;
    std::variant<TileViews, BlockTransposition> body;
  };

  /// The phases of merge_level(lo, hi) alone.
  SortPlan(const ProductGraph& pg, const S2Sorter& s2, int lo, int hi);
  SortPlan(const ProductGraph& pg, const S2Sorter& s2);

  void add_level(int lo, int hi);
  void add_s2(int lo, int hi, std::vector<ViewSpec> views,
              std::vector<bool> descending);
  void add_block_sorts(int lo, int hi);
  void add_transposition(int lo, int hi, int parity);

  const ProductGraph* pg_;
  const S2Sorter* s2_;
  double s2_weight_;
  std::optional<CompiledOET> schedule_;
  std::vector<Phase> phases_;
};

}  // namespace prodsort
