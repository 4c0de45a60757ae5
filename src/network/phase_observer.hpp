#pragma once

// The observation seam of the synchronous machine: every data-moving
// phase (compare-exchange on Machine, merge-split on BlockMachine) is
// bracketed by before/after callbacks on an attached PhaseObserver.
// The analysis layer's StepAuditor (src/analysis/step_auditor.hpp)
// implements this interface to verify the Section-4 phase disciplines
// the paper's cost claims rest on; the network layer itself stays free
// of any analysis dependency.
// Attaching an observer also changes how Machine runs S2 schedules,
// unless it only counts phases (counts_phases_only); see
// Machine::run_oet_schedule.

#include <cstdint>
#include <span>

#include "core/multiway_merge.hpp"  // Key
#include "product/gray_code.hpp"    // PNode

namespace prodsort {

/// One compare-exchange pair: after the step, key(low) <= key(high).
/// (In block mode the pair is a merge-split: block(low) keeps the b
/// smallest of the 2b keys.)
struct CEPair {
  PNode low;
  PNode high;
};

class PhaseObserver {
 public:
  virtual ~PhaseObserver() = default;

  /// True when this observer performs its own per-phase pair validation
  /// (the StepAuditor does), letting the machine skip its plain
  /// disjointness sweep.  Passive observers — e.g. the
  /// CheckpointManager, which only snapshots — return false so attaching
  /// them never silently disables the Debug-default disjointness check;
  /// chaining observers forward to the chained one.
  [[nodiscard]] virtual bool supersedes_validation() const { return false; }

  /// Called (immediately before before_phase) when the upcoming phase
  /// will execute under triple-modular-redundant voting.  Voted outcomes
  /// can differ from what single-replica replay would predict once a
  /// comparator fault is being masked, so auditing observers treat TMR
  /// phases as a counted blind spot (AuditorStats::tmr_phases); chaining
  /// observers forward.  Default: ignore.
  virtual void on_tmr_phase() {}

  /// Called immediately before a synchronous phase applies `pairs`.
  /// `keys` is the machine's complete key array (`block_size` keys per
  /// node, 1 for the unit-key Machine) and `hop_distance` the step's
  /// charged factor-graph hop bound.  `faulty` is true when an attached
  /// FaultModel may perturb this phase (observers cannot replay fault
  /// decisions and should skip replay-based checks).  The `pairs` span
  /// remains valid until the matching after_phase call.
  virtual void before_phase(std::span<const Key> keys,
                            std::span<const CEPair> pairs, int hop_distance,
                            int block_size, bool faulty) = 0;

  /// Called after the phase's writes are complete, with the same array.
  virtual void after_phase(std::span<const Key> keys) = 0;

  /// True when this observer only counts phases: it never reads the
  /// keys or pairs of a phase, and never needs to see the keys between
  /// two phases.  The machine may then run a whole S2 schedule without
  /// per-phase callbacks and report it in one after_phases call (see
  /// Machine::run_oet_schedule), and may hand it a phase whose pair
  /// list it never built as an empty `pairs` span
  /// (Machine::compare_exchange_blocks).  The CheckpointManager declares
  /// this when nothing is chained behind it.  Default: false.
  [[nodiscard]] virtual bool counts_phases_only() const { return false; }

  /// Called, instead of before_phase/after_phase for each, once `phases`
  /// synchronous phases have run back to back; `keys` holds the keys
  /// after the last of them.  Only issued to an observer whose
  /// counts_phases_only() is true.  Default: ignore.
  virtual void after_phases(std::span<const Key> keys, std::int64_t phases) {
    (void)keys;
    (void)phases;
  }
};

}  // namespace prodsort
