#pragma once

// Self-verifying sorts: a cheap certificate that a sort phase actually
// sorted, plus bounded detect-and-resort recovery when it did not.
//
// After a sort, certify_snake() reads the view's snake sequence and
// computes (a) the sortedness verdict with the dirty window — the
// smallest contiguous rank interval containing every out-of-place key,
// the same witness Lemma 1 bounds for the merge's Step 3 output — and
// (b) an order-independent multiset checksum of the keys.  Comparing the
// checksum against the pre-sort input distinguishes the two failure
// classes a faulty fabric produces:
//
//  * order corruption (lost compare-exchange messages): the multiset is
//    intact, only positions are wrong.  verify_and_recover() re-runs the
//    Lemma 1 dirty-window cleanup — odd-even transposition passes over
//    the dirty window's snake ranks, executed through the machine's own
//    compare-exchange primitive (so recovery is itself charged to the
//    cost model, and itself subject to any attached faults) — for a
//    bounded number of rounds instead of failing outright;
//
//  * data corruption (bit-flipped keys): the multiset changed; no amount
//    of re-sorting restores the lost value, so the outcome is reported
//    as kDataLoss for the caller to escalate (e.g. re-ingest the input).
//
// The checksum is a commutative combine of splitmix64-mixed keys
// (core/hashing.hpp): order-independent by construction, and any single
// bit flip changes it with overwhelming probability.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "network/machine.hpp"
#include "product/degraded_view.hpp"

namespace prodsort {

/// Order-independent multiset checksum: equal multisets give equal
/// checksums regardless of order; differing multisets collide with
/// probability ~2^-64.
[[nodiscard]] std::uint64_t multiset_checksum(std::span<const Key> keys);

struct SortCertificate {
  bool sorted = false;
  PNode first_violation = -1;  ///< snake rank of first inversion (-1 if none)
  PNode dirty_lo = 0;          ///< dirty window [dirty_lo, dirty_hi] in
  PNode dirty_hi = -1;         ///< snake ranks (empty when sorted)
  std::uint64_t checksum = 0;  ///< multiset checksum of the view's keys
};

/// One odd-even transposition pass (single parity: 0 pairs even ranks
/// with their right neighbor, 1 pairs odd ranks) over the snake ranks
/// [lo, hi] of `view`, executed through the machine's compare-exchange
/// primitive — charged to the cost model and subject to any attached
/// faults.  Returns the exchanges performed, so cleanup loops can
/// detect quiescence.  Shared by verify_and_recover and the
/// certificate repair loop (core/certifier.hpp).
std::int64_t oet_window_pass(Machine& machine, const ViewSpec& view, PNode lo,
                             PNode hi, int parity);

/// The Lemma 1 dirty window of `seq`: the first and last ranks at which
/// it differs from its own sorted copy, or {-1, -1} when it is sorted.
/// O(n), sorting and allocating nothing: the prefix [0, L) agrees with
/// the sorted copy exactly when it is non-decreasing and its last key is
/// <= the minimum of the rest, and symmetrically for a suffix.
struct DirtyWindow {
  PNode lo = -1;
  PNode hi = -1;
};
[[nodiscard]] DirtyWindow dirty_window(std::span<const Key> seq);

/// Certifies an explicit sequence (the core of certify_snake, exposed
/// for degraded-topology and host-side sequences).
[[nodiscard]] SortCertificate certify_sequence(std::span<const Key> seq);

/// Certifies the snake order of `view`: O(n) over the view size.
[[nodiscard]] SortCertificate certify_snake(const Machine& machine,
                                            const ViewSpec& view);

/// Keys of the surviving nodes along the degraded snake (the read-out
/// of a remap-and-restart sort; orphan keys are NOT included — the
/// RecoveryController merges those host-side).
[[nodiscard]] std::vector<Key> read_degraded_snake(const Machine& machine,
                                                   const DegradedView& view);

/// Certificate over the degraded snake sequence: proves a
/// degraded-topology sort left the survivors in order.
[[nodiscard]] SortCertificate certify_degraded(const Machine& machine,
                                               const DegradedView& view);

enum class RecoveryOutcome {
  kClean,       ///< already sorted, nothing to do
  kRecovered,   ///< order corruption repaired within the round budget
  kDataLoss,    ///< multiset changed: keys were corrupted, not just moved
  kUnrecovered, ///< still unsorted after max_rounds cleanup rounds
};

[[nodiscard]] std::string to_string(RecoveryOutcome outcome);

struct RecoveryOptions {
  /// Pre-sort multiset_checksum of the input; 0 skips the multiset check
  /// (0 is also a possible checksum, so callers wanting the check should
  /// always pass the real value).
  std::uint64_t expected_checksum = 0;
  int max_rounds = 4;  ///< bounded detect-and-resort rounds
};

struct RecoveryReport {
  RecoveryOutcome outcome = RecoveryOutcome::kClean;
  int rounds = 0;                   ///< cleanup rounds executed
  std::int64_t recovery_steps = 0;  ///< exec_steps charged to recovery
  SortCertificate before;           ///< certificate on entry
  SortCertificate after;            ///< certificate on exit
};

/// Certifies `view` and, if it is unsorted but the multiset is intact,
/// runs the bounded dirty-window cleanup until sorted or `max_rounds` is
/// exhausted.  Recovery exec time is charged to the machine's CostModel
/// (both exec_steps and the recovery_steps counter).
RecoveryReport verify_and_recover(Machine& machine, const ViewSpec& view,
                                  const RecoveryOptions& options = {});

}  // namespace prodsort
