#include "core/verify.hpp"

#include <algorithm>
#include <vector>

#include "core/hashing.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

std::int64_t oet_window_pass(Machine& machine, const ViewSpec& view, PNode lo,
                             PNode hi, int parity) {
  const ProductGraph& pg = machine.graph();
  std::vector<CEPair> pairs;
  pairs.reserve(static_cast<std::size_t>((hi - lo) / 2 + 1));
  // Parity is absolute snake-rank parity, not window-relative: repair
  // loops recompute [lo, hi] from the drifting dirty window each pass,
  // and anchoring the pairing at `lo + parity` would let a shifting
  // window land the same absolute alignment twice in a row — turning
  // every other alternating pass into a no-op and breaking the
  // width-passes-to-clean bound certify_and_repair budgets against.
  const PNode start = lo + (static_cast<int>(lo & 1) == parity ? 0 : 1);
  if (start + 1 <= hi) {
    SnakeWalker walk(pg, view, start);
    for (PNode rank = start; rank + 1 <= hi; rank += 2) {
      const PNode low = walk.node();
      walk.next();
      pairs.push_back({low, walk.node()});
      walk.next();
    }
  }
  const std::int64_t before = machine.cost().exchanges;
  machine.compare_exchange_step(pairs, pg.factor().dilation);
  return machine.cost().exchanges - before;
}

std::uint64_t multiset_checksum(std::span<const Key> keys) {
  // Commutative combine (sum + xor of mixed keys) finalized together
  // with the count: order cannot matter, value changes almost surely do.
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  for (const Key k : keys) {
    const std::uint64_t h = mix64(static_cast<std::uint64_t>(k));
    sum += h;
    xr ^= h;
  }
  return mix64(mix64(sum, xr), static_cast<std::uint64_t>(keys.size()));
}

DirtyWindow dirty_window(std::span<const Key> seq) {
  // [0, run) and [tail, n) are the longest non-decreasing prefix and
  // suffix.  A prefix [0, L) with L <= run agrees with the sorted copy
  // iff its last key is <= every later key, i.e. <= the minimum of
  // [run, n) (the keys between L and run are at least its last one): so
  // the agreeing prefix is the part of [0, run) that is <= that minimum.
  // Symmetrically, the agreeing suffix is the part of [tail, n) that is
  // >= the maximum of [0, tail).
  const std::size_t n = seq.size();
  std::size_t run = 1;
  while (run < n && seq[run - 1] <= seq[run]) ++run;
  if (run >= n) return {};
  std::size_t tail = n - 1;
  while (seq[tail - 1] <= seq[tail]) --tail;
  const auto first = seq.begin();
  const auto run_end = first + static_cast<std::ptrdiff_t>(run);
  const auto tail_begin = first + static_cast<std::ptrdiff_t>(tail);
  const Key rest_min = *std::min_element(run_end, seq.end());
  const Key head_max = *std::max_element(first, tail_begin);
  const auto lo = std::upper_bound(first, run_end, rest_min);
  const auto hi = std::lower_bound(tail_begin, seq.end(), head_max);
  return {static_cast<PNode>(lo - first), static_cast<PNode>(hi - first) - 1};
}

SortCertificate certify_sequence(std::span<const Key> seq) {
  SortCertificate cert;
  cert.checksum = multiset_checksum(seq);

  const DirtyWindow window = dirty_window(seq);
  cert.sorted = window.lo < 0;
  if (cert.sorted) return cert;
  cert.dirty_lo = window.lo;
  cert.dirty_hi = window.hi;
  for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
    if (seq[i] > seq[i + 1]) {
      cert.first_violation = static_cast<PNode>(i);
      break;
    }
  }
  return cert;
}

SortCertificate certify_snake(const Machine& machine, const ViewSpec& view) {
  return certify_sequence(machine.read_snake(view));
}

std::vector<Key> read_degraded_snake(const Machine& machine,
                                     const DegradedView& view) {
  std::vector<Key> out;
  out.reserve(static_cast<std::size_t>(view.live_size()));
  for (const PNode node : view.live_nodes()) out.push_back(machine.key(node));
  return out;
}

SortCertificate certify_degraded(const Machine& machine,
                                 const DegradedView& view) {
  return certify_sequence(read_degraded_snake(machine, view));
}

std::string to_string(RecoveryOutcome outcome) {
  switch (outcome) {
    case RecoveryOutcome::kClean: return "clean";
    case RecoveryOutcome::kRecovered: return "recovered";
    case RecoveryOutcome::kDataLoss: return "data-loss";
    case RecoveryOutcome::kUnrecovered: return "unrecovered";
  }
  return "?";
}

RecoveryReport verify_and_recover(Machine& machine, const ViewSpec& view,
                                  const RecoveryOptions& options) {
  RecoveryReport report;
  report.before = certify_snake(machine, view);
  report.after = report.before;

  if (options.expected_checksum != 0 &&
      report.before.checksum != options.expected_checksum) {
    report.outcome = RecoveryOutcome::kDataLoss;
    return report;
  }
  if (report.before.sorted) {
    report.outcome = RecoveryOutcome::kClean;
    return report;
  }

  const PNode size = view_size(machine.graph(), view);
  const std::int64_t steps_before = machine.cost().exec_steps;
  SortCertificate cert = report.before;
  for (int round = 0; round < options.max_rounds && !cert.sorted; ++round) {
    ++report.rounds;
    // Lemma 1 cleanup, one window wider than the certified dirty span so
    // boundary keys can cross into it.
    const PNode lo = std::max<PNode>(0, cert.dirty_lo - 1);
    const PNode hi = std::min<PNode>(size - 1, cert.dirty_hi + 1);
    // A window of width w is fully sorted by w OET passes; stop early
    // after one quiet pass of each parity.  (Under an attached fault
    // model a dropped exchange can fake quiescence — the re-certify
    // below catches that and the next round retries.)
    const PNode width = hi - lo + 1;
    int quiet = 0;
    for (PNode pass = 0; pass < width + 2 && quiet < 2; ++pass) {
      const std::int64_t exchanged =
          oet_window_pass(machine, view, lo, hi, static_cast<int>(pass % 2));
      quiet = exchanged == 0 ? quiet + 1 : 0;
    }
    cert = certify_snake(machine, view);
  }

  report.after = cert;
  report.recovery_steps = machine.cost().exec_steps - steps_before;
  machine.cost().recovery_steps += report.recovery_steps;
  report.outcome =
      cert.sorted ? RecoveryOutcome::kRecovered : RecoveryOutcome::kUnrecovered;
  return report;
}

}  // namespace prodsort
