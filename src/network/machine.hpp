#pragma once

// The simulated machine of the paper: an N^r-processor network with the
// topology of PG_r, one key per processor, operated in synchronous
// phases.  "During the sorting algorithm, each processor needs enough
// memory to hold at most two values being compared" (Section 4) — the
// simulator's only data-moving primitive is the compare-exchange step
// over disjoint processor pairs, optionally routed across a few hops
// inside one factor subgraph.
//
// Time accounting is described in cost_model.hpp.  Phases are applied in
// parallel by an optional ParallelExecutor; because pairs within a phase
// are disjoint, results are deterministic for any thread count.
// Executable S2 sorts hand the machine one view-local schedule
// (run_oet_schedule); a compiled sort plan (core/sort_plan.hpp) hands it
// phases checked once (network/plan_phases.hpp).

#include <span>
#include <vector>

#include "core/multiway_merge.hpp"  // Key
#include "network/cost_model.hpp"
#include "network/fault_model.hpp"
#include "network/oet_schedule.hpp"
#include "network/parallel_executor.hpp"
#include "network/plan_phases.hpp"
#include "network/phase_observer.hpp"  // CEPair, PhaseObserver
#include "product/subgraph_view.hpp"

namespace prodsort {

class Machine {
 public:
  /// `keys.size()` must equal `pg.num_nodes()`.  The executor (optional)
  /// is borrowed and must outlive the machine.
  Machine(const ProductGraph& pg, std::vector<Key> keys,
          ParallelExecutor* executor = nullptr);

  [[nodiscard]] const ProductGraph& graph() const noexcept { return *pg_; }
  [[nodiscard]] std::span<const Key> keys() const noexcept { return keys_; }
  [[nodiscard]] std::span<Key> mutable_keys() noexcept { return keys_; }
  [[nodiscard]] Key key(PNode node) const {
    return keys_[static_cast<std::size_t>(node)];
  }

  [[nodiscard]] CostModel& cost() noexcept { return cost_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] ParallelExecutor* executor() const noexcept { return executor_; }

  /// One synchronous compare-exchange step.  `pairs` must be disjoint
  /// (checked when `check_disjoint` is set); `hop_distance` is the
  /// largest factor-graph distance between partners (exec time charge).
  void compare_exchange_step(std::span<const CEPair> pairs, int hop_distance = 1);

  /// Runs `schedule` (network/oet_schedule.hpp) in every view, in
  /// lockstep; `descending[i]` inverts view i.  Each view must have
  /// exactly two free dimensions, `descending` one flag per view, and
  /// no two positions of one line family may share a tile offset
  /// (std::invalid_argument otherwise); views must be disjoint (checked
  /// only by the per-phase path's disjointness sweep).  Every phase is
  /// charged as compare_exchange_step would charge it — the factor's
  /// dilation in exec steps, one comparison per pair, one exchange per
  /// swap — whichever way it runs:
  ///  * a plain machine (no fault model or TMR, no disjointness sweep
  ///    left to run, and no observer other than one that only counts
  ///    phases) runs it tile by tile: it gathers each view's N^2 keys
  ///    into a buffer (complemented once if the view descends), runs
  ///    all passes there, and scatters them back; an executor splits
  ///    the views into contiguous ranges.  The lines of a pass are
  ///    independent lanes of one network, so a pass runs lane-major
  ///    through the lane kernel (network/oet_lanes.hpp): each phase is
  ///    a min/max of one row of positions against the next across all
  ///    lines.  A family whose lines are the tile's columns, none
  ///    flipped (ShearsortS2's columns), runs in place on the buffer;
  ///    any other family goes through one masked transposed gather and
  ///    scatter (flipped lines complemented).  When every family has
  ///    fewer lines than the kernel's vector holds (SnakeOETS2's
  ///    snake), the lines of several views run together as the lanes
  ///    of one matrix, gathered straight from the keys.  The kernel's
  ///    ISA variant (AVX-512F, AVX2 or the portable baseline) is picked
  ///    once, at run time, from the CPU.  A pass ends once an even and
  ///    an odd phase in a row swap nothing (the rest is still charged).  A
  ///    counting observer (counts_phases_only, e.g. a CheckpointManager
  ///    with nothing chained) gets the call's phase count in one
  ///    after_phases callback, with the post-call keys;
  ///  * any other machine expands the schedule into the per-phase pair
  ///    lists — view by view, line by line, position by position — and
  ///    issues one compare_exchange_step per phase, so key-reading
  ///    observers (the StepAuditor, the schedule recorder, anything
  ///    chained behind a checkpoint manager), fault decisions and TMR
  ///    voting see every phase as they would without the schedule.
  ///    There is no option for the choice; it is read from the
  ///    machine's own state.
  /// Equivalent to the overload below on CompiledOET(schedule, N) and
  /// TileViews(graph(), views, descending), which do the checks.
  void run_oet_schedule(const OETSchedule& schedule,
                        std::span<const ViewSpec> views,
                        const std::vector<bool>& descending);

  /// run_oet_schedule with the schedule and the views checked once, when
  /// they were built: nothing is checked, derived or allocated per call
  /// beyond the per-phase path's pair lists.  std::invalid_argument when
  /// either was checked against a graph of another shape.
  void run_oet_schedule(const CompiledOET& schedule, const TileViews& views);

  /// One Step-4 transposition phase (network/plan_phases.hpp), charged as
  /// compare_exchange_step charges its expansion.  A plain machine (see
  /// run_oet_schedule) runs the block pairs in place, never building the
  /// pair list; a counting observer still gets the phase's before_phase
  /// and after_phase calls, with an empty pair span.  Any other machine
  /// issues
  /// compare_exchange_step(phase.expand(), hop_distance), so observers,
  /// fault decisions, TMR voting and the disjointness sweep see the same
  /// pairs in the same order.  std::invalid_argument when the phase was
  /// built for a graph of another shape.
  void compare_exchange_blocks(const BlockTransposition& phase,
                               int hop_distance);

  /// Per-step disjointness validation: O(pairs) extra work and one
  /// zeroed byte per processor, roughly doubling the per-phase overhead
  /// of small steps.  On by default in Debug builds (NDEBUG undefined);
  /// Release builds keep it opt-in so the hot path stays a plain sweep.
  /// An attached *validating* observer (supersedes_validation() true,
  /// e.g. the StepAuditor) supersedes this flag; passive observers like
  /// the CheckpointManager leave it in force.
  void set_check_disjoint(bool on) noexcept { check_disjoint_ = on; }

  /// Statically-audited mode: declares that every schedule this machine
  /// will run has been proven disjoint offline (staticcheck/
  /// static_prover.hpp — a clean StaticProof covering the schedule's
  /// canonical hash).  While set, the per-step disjointness sweep is
  /// skipped even when `check_disjoint` is on, moving the O(pairs +
  /// nodes) per-phase validation cost to a one-time static proof.  The
  /// caller owns the obligation: setting this without a proof silently
  /// disables the safety net (tools/prodsort_staticcheck measures the
  /// sweep cost this mode saves and gates on the proof actually
  /// existing).  A validating observer still supersedes everything.
  void set_statically_audited(bool on) noexcept { statically_audited_ = on; }
  [[nodiscard]] bool statically_audited() const noexcept {
    return statically_audited_;
  }

  /// Attaches a phase observer (borrowed; must outlive the machine, pass
  /// nullptr to detach).  While attached it is invoked around every
  /// compare-exchange step and supersedes `set_check_disjoint` (see
  /// run_oet_schedule for its effect on S2 schedules, and for the one
  /// callback per schedule an observer that only counts phases gets).
  void set_observer(PhaseObserver* observer) noexcept { observer_ = observer; }
  [[nodiscard]] PhaseObserver* observer() const noexcept { return observer_; }

  /// Attaches a fault model (borrowed; must outlive the machine, pass
  /// nullptr to detach).  While attached, compare-exchange steps are
  /// subject to its compute-side faults: dropped pairs (counted as
  /// CostModel::retries), key corruption, and straggler slowdown (the
  /// step's exec charge is multiplied by straggler_factor when any pair
  /// touches a straggler).  With no model attached — or a model with all
  /// compute rates zero — results are bit-identical to the fault-free
  /// machine.  If the model selects stragglers, call
  /// `select_stragglers(graph().num_nodes())` on it first.
  ///
  /// Fail-stop crashes (FaultConfig::crash_schedule) fire at the start
  /// of the scheduled phase (this machine's fault-step counter): the
  /// node's key decays to crash_garbage.  If the crashed node is paired
  /// in that very phase and the crash is restartable, its partner still
  /// holds both values of the exchange (the Section-4 two-value memory),
  /// so the machine restores the key and re-executes the phase in place
  /// (charged as an extra phase; CostModel::reexec_phases).  Otherwise
  /// the key has no live copy and the machine throws CrashInterrupt for
  /// the caller to escalate (checkpoint rollback / degraded remap — see
  /// network/recovery.hpp).  While any node is dead, issuing a pair that
  /// touches it is a std::logic_error: degraded schedules must pair live
  /// nodes only (product/degraded_view.hpp).
  void set_fault_model(FaultModel* faults) noexcept { faults_ = faults; }
  [[nodiscard]] FaultModel* fault_model() const noexcept { return faults_; }

  /// Triple-modular-redundancy mode: every compare-exchange pair is
  /// evaluated by three comparator replicas and the majority outcome is
  /// committed.  The redundancy is *spatial* — a silently-faulty
  /// comparator (FaultConfig::comparator_schedule) occupies one
  /// seed-hashed replica (FaultModel::faulty_replica), so voting masks
  /// any single faulty comparator per pair; per-message faults (CE
  /// drops, corruption) are decided per replica and masked the same
  /// way.  Honestly charged: 3x comparisons plus one extra exec step
  /// per phase for the vote (CostModel::tmr_phases / tmr_masked).
  /// Without faults the voted outcome is bit-identical to plain mode.
  void set_tmr(bool on) noexcept { tmr_ = on; }
  [[nodiscard]] bool tmr() const noexcept { return tmr_; }

  /// Synchronous phases executed so far under an attached fault model —
  /// the phase clock crash events are keyed on.
  [[nodiscard]] std::int64_t fault_phase() const noexcept {
    return fault_step_;
  }

  /// Re-arms the fault clock for a fresh trial on the same machine, so
  /// a crash schedule keyed on phase indices fires again from phase 0.
  /// Pair with FaultModel::reset() (which un-fires the events) and, if
  /// cumulative counters must restart, cost().reset_fault_counters() —
  /// the service retry path relies on this trio to keep back-to-back
  /// sorts on one machine from double-counting or silently skipping
  /// scheduled faults.
  void reset_fault_clock() noexcept { fault_step_ = 0; }

  /// Reads the keys out in snake order of `view` — the "result" of a sort
  /// phase for verification.
  [[nodiscard]] std::vector<Key> read_snake(const ViewSpec& view) const;

  /// True iff the keys of `view` ascend (or descend) along its snake.
  [[nodiscard]] bool snake_sorted(const ViewSpec& view,
                                  bool descending = false) const;

 private:
  void faulty_compare_exchange_step(std::span<const CEPair> pairs,
                                    int hop_distance, std::int64_t step);
  void tmr_compare_exchange_step(std::span<const CEPair> pairs,
                                 int hop_distance, std::int64_t step);
  /// Selects run_oet_schedule's tiled path (see there).
  [[nodiscard]] bool plain() const noexcept {
    return (observer_ == nullptr || observer_->counts_phases_only()) &&
           faults_ == nullptr && !tmr_ &&
           (!check_disjoint_ || statically_audited_);
  }
  void run_oet_tiled(const CompiledOET& schedule,
                     std::span<const ViewSpec> views,
                     const std::vector<bool>& descending);
  void run_oet_phases(const OETSchedule& schedule,
                      std::span<const ViewSpec> views,
                      const std::vector<bool>& descending);
  /// Fires due crash events for `step`; returns true when the phase must
  /// be re-executed (partner recovery), throws CrashInterrupt when the
  /// lost key has no live copy.
  bool fire_crashes(std::span<const CEPair> pairs, std::int64_t step);

  const ProductGraph* pg_;
  std::vector<Key> keys_;
  CostModel cost_;
  ParallelExecutor* executor_;
  FaultModel* faults_ = nullptr;
  PhaseObserver* observer_ = nullptr;
  std::int64_t fault_step_ = 0;  ///< event-id stream for fault decisions
  bool tmr_ = false;             ///< triple-redundant voting; see set_tmr
  bool statically_audited_ = false;  ///< see set_statically_audited
#ifdef NDEBUG
  bool check_disjoint_ = false;
#else
  bool check_disjoint_ = true;  ///< Debug default; see set_check_disjoint
#endif
};

}  // namespace prodsort
