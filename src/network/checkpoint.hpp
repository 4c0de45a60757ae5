#pragma once

// CheckpointManager: phase-boundary snapshots with replicated shadow
// copies, the rollback substrate of the crash-recovery ladder
// (network/recovery.hpp).
//
// The manager attaches through the PhaseObserver seam (chaining any
// observer already installed, e.g. the StepAuditor) and, every
// `interval` synchronous phases, snapshots the machine's complete key
// array.  The snapshot is modeled as stored inside the fabric itself:
// node v keeps its own entry (the primary copy) and additionally holds
// the entry of its snake-order neighbor (the shadow copy) — consecutive
// snake ranks are Gray-code neighbors, so writing the shadow is one
// factor-dilation-bounded exchange per node, executed as a single
// parallel phase and charged to CostModel::checkpoint_steps.
//
// A fail-stop crash wipes the crashed node's memory, checkpoint copies
// included.  restore() therefore sources each entry from the primary
// when its host survived, falls back to the shadow holder otherwise,
// and reports the entry lost when both have crashed since the snapshot
// (the only way the scheme loses data).  Crashes absorbed in-phase by
// partner re-execution never invalidate a copy: the partner's buffered
// pair re-seeds the rebooted node's full memory, checkpoint copy
// included.  Entries of permanently dead nodes are returned as orphans
// for the RecoveryController to park host-side and merge at read-out.
//
// Checkpoints are never taken while any node is dead — a snapshot must
// describe a full-topology state or rollback could not resume on it.
//
// With no observer chained behind it the manager only counts phases
// (PhaseObserver::counts_phases_only), so a machine with no fault model
// still runs its S2 schedules tile by tile (Machine::run_oet_schedule)
// and reports each call's phases at once.  The manager then takes
// exactly the snapshots the per-phase path would take, so checkpoints,
// checkpoint_steps, exec_steps and generation() are identical; a
// snapshot that falls inside such a call holds the keys after the call
// instead of the keys at its phase boundary.  Nothing can tell: only a
// crash leads to restore(), crashes need a fault model, and a machine
// with a fault model runs every phase through the per-phase path.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "network/block_machine.hpp"
#include "network/machine.hpp"
#include "network/phase_observer.hpp"

namespace prodsort {

struct CheckpointConfig {
  /// Synchronous phases between snapshots; 0 disables periodic
  /// snapshots (explicit snapshot_now() still works).
  int interval = 8;
  /// Take the baseline snapshot immediately on attach, so rollback is
  /// possible from the very first phase.
  bool snapshot_on_attach = true;
};

class CheckpointManager final : public PhaseObserver {
 public:
  explicit CheckpointManager(CheckpointConfig config = {});
  ~CheckpointManager() override;

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Installs the manager as the machine's observer, chaining any
  /// observer already attached (its callbacks keep firing).  Exactly one
  /// machine may be attached at a time; detach() (or destruction)
  /// restores the previous observer.
  void attach(Machine& machine);
  void attach(BlockMachine& machine);
  void detach();

  [[nodiscard]] const CheckpointConfig& config() const noexcept {
    return config_;
  }

  // PhaseObserver: forward to the chained observer, then count the
  // phase and snapshot on interval boundaries.
  [[nodiscard]] bool supersedes_validation() const override {
    return next_ != nullptr && next_->supersedes_validation();
  }
  void on_tmr_phase() override {
    if (next_ != nullptr) next_->on_tmr_phase();
  }
  void before_phase(std::span<const Key> keys, std::span<const CEPair> pairs,
                    int hop_distance, int block_size, bool faulty) override;
  void after_phase(std::span<const Key> keys) override;
  /// Counting is all the manager itself does between snapshots; an
  /// observer chained behind it may read keys, so it turns this off.
  [[nodiscard]] bool counts_phases_only() const override {
    return next_ == nullptr;
  }
  /// Advances the phase counter by `phases` and charges every snapshot
  /// the per-phase path would have taken in them; the stored snapshot is
  /// `keys`, the state after the last phase.
  void after_phases(std::span<const Key> keys, std::int64_t phases) override;

  [[nodiscard]] bool has_checkpoint() const noexcept {
    return generation_ > 0;
  }
  /// Snapshots taken so far (monotone; 0 before the first).
  [[nodiscard]] std::int64_t generation() const noexcept { return generation_; }

  /// Takes a snapshot of the attached machine's current keys right now.
  /// std::logic_error when nothing is attached or a node is dead.
  void snapshot_now();

  /// Records that `node`'s memory — its checkpoint copies included —
  /// was wiped by a crash since the last snapshot.  The
  /// RecoveryController calls this for every CrashInterrupt it catches;
  /// the mark clears when the next snapshot is taken.
  void note_crash(PNode node);

  /// Shadow holder of `node`'s checkpoint entry: its snake-order
  /// successor (the last rank shadows onto its predecessor), always a
  /// dilation-bounded Gray-code neighbor.
  [[nodiscard]] PNode shadow_holder(PNode node) const;

  struct RestoreResult {
    std::vector<PNode> from_shadow;  ///< entries sourced from the shadow copy
    /// Recovered entries of currently dead nodes: they cannot be written
    /// back into a dead memory, so the caller parks them host-side and
    /// merges them into the output at read-out.
    std::vector<std::pair<PNode, Key>> orphans;
    std::vector<PNode> lost;  ///< primary and shadow both wiped: data loss
  };

  /// Rolls the attached machine back to the last snapshot: every live
  /// node's entry is rewritten (from primary or shadow), dead nodes'
  /// recoverable entries come back as orphans.  One parallel
  /// shadow-fetch phase is charged to exec_steps and recovery_steps.
  /// std::logic_error when no snapshot exists.  (BlockMachine has no
  /// fault model: its restore is a plain full-array rewrite.)
  RestoreResult restore();

 private:
  /// Stores `keys` as the current snapshot and charges `count`
  /// snapshots (count > 1 only for after_phases).
  void take_snapshot(std::span<const Key> keys, std::int64_t count = 1);
  [[nodiscard]] bool entry_valid(PNode node) const;

  CheckpointConfig config_;
  Machine* machine_ = nullptr;
  BlockMachine* block_ = nullptr;
  PhaseObserver* next_ = nullptr;  ///< chained previous observer
  std::vector<Key> snapshot_;
  std::int64_t generation_ = 0;
  std::int64_t phases_ = 0;        ///< phases seen since last snapshot
  std::vector<char> crashed_;      ///< wiped-since-snapshot flag per node
};

}  // namespace prodsort
