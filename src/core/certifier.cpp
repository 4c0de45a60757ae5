#include "core/certifier.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/hashing.hpp"
#include "core/verify.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

MultisetFingerprint fingerprint_sequence(std::span<const Key> keys,
                                         ParallelExecutor* executor) {
  // The same commutative combine as multiset_checksum: per-key splitmix
  // hashes folded with wrapping-sum and xor, both order-independent, so
  // chunked parallel accumulation commits identical results for any
  // thread count.
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> xr{0};
  auto body = [&](std::int64_t begin, std::int64_t end) {
    std::uint64_t s = 0;
    std::uint64_t x = 0;
    for (std::int64_t i = begin; i < end; ++i) {
      const std::uint64_t h =
          mix64(static_cast<std::uint64_t>(keys[static_cast<std::size_t>(i)]));
      s += h;
      x ^= h;
    }
    sum.fetch_add(s, std::memory_order_relaxed);
    xr.fetch_xor(x, std::memory_order_relaxed);
  };
  if (executor != nullptr)
    executor->parallel_for(static_cast<std::int64_t>(keys.size()), body);
  else
    body(0, static_cast<std::int64_t>(keys.size()));

  MultisetFingerprint fp;
  fp.count = static_cast<std::uint64_t>(keys.size());
  fp.checksum = mix64(mix64(sum.load(std::memory_order_relaxed),
                            xr.load(std::memory_order_relaxed)),
                      fp.count);
  return fp;
}

void FingerprintAccumulator::absorb(Key key) noexcept {
  const std::uint64_t h = mix64(static_cast<std::uint64_t>(key));
  sum_ += h;
  xor_ ^= h;
  ++count_;
}

void FingerprintAccumulator::absorb(std::span<const Key> keys) noexcept {
  for (const Key k : keys) absorb(k);
}

void FingerprintAccumulator::absorb(
    const FingerprintAccumulator& other) noexcept {
  sum_ += other.sum_;
  xor_ ^= other.xor_;
  count_ += other.count_;
}

MultisetFingerprint FingerprintAccumulator::finalize() const noexcept {
  MultisetFingerprint fp;
  fp.count = count_;
  fp.checksum = mix64(mix64(sum_, xor_), count_);
  return fp;
}

FingerprintState FingerprintAccumulator::state() const noexcept {
  return FingerprintState{sum_, xor_, count_};
}

FingerprintAccumulator FingerprintAccumulator::from_state(
    const FingerprintState& state) noexcept {
  FingerprintAccumulator acc;
  acc.sum_ = state.sum;
  acc.xor_ = state.xor_mix;
  acc.count_ = state.count;
  return acc;
}

std::string to_string(CertVerdict verdict) {
  switch (verdict) {
    case CertVerdict::kPass: return "pass";
    case CertVerdict::kWrongOrder: return "wrong-order";
    case CertVerdict::kKeysCorrupted: return "keys-corrupted";
  }
  return "?";
}

std::string to_string(CertLevel level) {
  switch (level) {
    case CertLevel::kSpot: return "spot";
    case CertLevel::kSampled: return "sampled";
    case CertLevel::kFull: return "full";
  }
  return "?";
}

CertLevel parse_cert_level(const std::string& name) {
  if (name == "spot") return CertLevel::kSpot;
  if (name == "sampled") return CertLevel::kSampled;
  if (name == "full") return CertLevel::kFull;
  throw std::invalid_argument("unknown certification level '" + name + "'");
}

std::vector<std::int64_t> sampled_pair_indices(std::int64_t pairs,
                                               std::int64_t scanned,
                                               std::uint64_t seed) {
  if (pairs <= 0) return {};
  scanned = std::clamp<std::int64_t>(scanned, 0, pairs);
  std::vector<std::int64_t> order(static_cast<std::size_t>(pairs));
  for (std::int64_t i = 0; i < pairs; ++i)
    order[static_cast<std::size_t>(i)] = i;
  // Partial Fisher-Yates: the first `scanned` entries are exactly the
  // prefix of the full seeded permutation, so samples at different
  // coverages nest — the property the monotone-detection tests pin.
  for (std::int64_t i = 0; i < scanned; ++i) {
    const std::int64_t j =
        i + static_cast<std::int64_t>(
                mix64(seed, static_cast<std::uint64_t>(i)) %
                static_cast<std::uint64_t>(pairs - i));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  order.resize(static_cast<std::size_t>(scanned));
  return order;
}

std::int64_t scanned_pairs_for(std::int64_t n, double coverage) {
  if (n < 2) return 0;
  const std::int64_t pairs = n - 1;
  const auto want = static_cast<std::int64_t>(
      std::ceil(coverage * static_cast<double>(pairs)));
  return std::clamp<std::int64_t>(want, 1, pairs);
}

std::int64_t certificate_steps(std::int64_t n, std::int64_t scanned,
                               bool fingerprint) {
  std::int64_t steps = (scanned + kCertLanes - 1) / kCertLanes;
  if (fingerprint) {
    // One hashing step plus a combine tree of depth ceil(log2 n).
    std::int64_t depth = 0;
    for (std::int64_t span = 1; span < n; span *= 2) ++depth;
    steps += 1 + depth;
  }
  return steps;
}

std::string to_string(RepairOutcome outcome) {
  switch (outcome) {
    case RepairOutcome::kCertified: return "certified";
    case RepairOutcome::kRepaired: return "repaired";
    case RepairOutcome::kKeysCorrupted: return "keys-corrupted";
    case RepairOutcome::kBudgetExhausted: return "budget-exhausted";
  }
  return "?";
}

Certifier::Certifier(std::span<const Key> input, ParallelExecutor* executor)
    : expected_(fingerprint_sequence(input, executor)), executor_(executor) {}

Certifier::Certifier(MultisetFingerprint expected, ParallelExecutor* executor)
    : expected_(expected), executor_(executor) {}

EndToEndCertificate Certifier::certify(std::span<const Key> seq) const {
  EndToEndCertificate cert;
  cert.expected = expected_;
  cert.observed = fingerprint_sequence(seq, executor_);
  cert.scanned_pairs =
      std::max<std::int64_t>(0, static_cast<std::int64_t>(seq.size()) - 1);

  // Parallel adjacency scan: sorted iff no adjacent pair inverts.  The
  // first-violation rank is an atomic-min so any chunking reports the
  // same witness.
  std::atomic<std::int64_t> violations{0};
  std::atomic<std::int64_t> first{static_cast<std::int64_t>(seq.size())};
  auto body = [&](std::int64_t begin, std::int64_t end) {
    std::int64_t local = 0;
    std::int64_t local_first = static_cast<std::int64_t>(seq.size());
    for (std::int64_t i = begin; i < end; ++i) {
      if (i + 1 >= static_cast<std::int64_t>(seq.size())) break;
      if (seq[static_cast<std::size_t>(i)] >
          seq[static_cast<std::size_t>(i + 1)]) {
        ++local;
        if (i < local_first) local_first = i;
      }
    }
    violations.fetch_add(local, std::memory_order_relaxed);
    std::int64_t seen = first.load(std::memory_order_relaxed);
    while (local_first < seen &&
           !first.compare_exchange_weak(seen, local_first,
                                        std::memory_order_relaxed))
      ;
  };
  if (executor_ != nullptr)
    executor_->parallel_for(static_cast<std::int64_t>(seq.size()), body);
  else
    body(0, static_cast<std::int64_t>(seq.size()));

  cert.adjacency_violations = violations.load(std::memory_order_relaxed);
  cert.sorted = cert.adjacency_violations == 0;
  if (!cert.sorted) {
    cert.first_violation =
        static_cast<PNode>(first.load(std::memory_order_relaxed));
    // The Lemma 1 dirty window — smallest rank interval disagreeing
    // with its own sorted copy — guides repair; computed only on the
    // failure path.
    const DirtyWindow window = dirty_window(seq);
    cert.dirty_lo = window.lo;
    cert.dirty_hi = window.hi;
  }

  if (cert.observed != cert.expected)
    cert.verdict = CertVerdict::kKeysCorrupted;
  else if (!cert.sorted)
    cert.verdict = CertVerdict::kWrongOrder;
  else
    cert.verdict = CertVerdict::kPass;
  return cert;
}

EndToEndCertificate Certifier::certify(const Machine& machine,
                                       const ViewSpec& view) const {
  return certify(machine.read_snake(view));
}

EndToEndCertificate Certifier::certify_sampled(std::span<const Key> seq,
                                               const CertPlan& plan) const {
  const auto n = static_cast<std::int64_t>(seq.size());
  const std::int64_t pairs = std::max<std::int64_t>(0, n - 1);
  const std::int64_t scanned = scanned_pairs_for(n, plan.coverage);
  if (scanned >= pairs && plan.fingerprint) {
    // Full plan: identical to the exhaustive certificate.
    EndToEndCertificate cert = certify(seq);
    cert.level = plan.level;
    return cert;
  }

  EndToEndCertificate cert;
  cert.level = plan.level;
  cert.expected = expected_;
  cert.fingerprint_checked = plan.fingerprint;
  // A skipped fingerprint records observed == expected trivially — the
  // certificate then attests order only, which is the point of the
  // cheap levels (fingerprint_checked marks the difference).
  cert.observed =
      plan.fingerprint ? fingerprint_sequence(seq, executor_) : expected_;
  cert.scanned_pairs = scanned;

  std::int64_t violations = 0;
  std::int64_t first = n;
  const auto scan_pair = [&](std::int64_t i) {
    if (seq[static_cast<std::size_t>(i)] >
        seq[static_cast<std::size_t>(i + 1)]) {
      ++violations;
      if (i < first) first = i;
    }
  };
  if (scanned >= pairs) {
    for (std::int64_t i = 0; i < pairs; ++i) scan_pair(i);
  } else {
    for (const std::int64_t i :
         sampled_pair_indices(pairs, scanned, plan.sample_seed))
      scan_pair(i);
  }

  cert.adjacency_violations = violations;
  cert.sorted = violations == 0;
  if (!cert.sorted) {
    cert.first_violation = static_cast<PNode>(first);
    // The dirty window stays the *exact* sorted-copy diff even when the
    // scan that caught the inversion was sampled, so escalation and
    // repair always work from the true window.
    const DirtyWindow window = dirty_window(seq);
    cert.dirty_lo = window.lo;
    cert.dirty_hi = window.hi;
  }

  if (cert.observed != cert.expected)
    cert.verdict = CertVerdict::kKeysCorrupted;
  else if (!cert.sorted)
    cert.verdict = CertVerdict::kWrongOrder;
  else
    cert.verdict = CertVerdict::kPass;
  return cert;
}

EndToEndCertificate certify_charged(Machine& machine, const ViewSpec& view,
                                    const Certifier& certifier,
                                    const CertPlan& plan) {
  const std::vector<Key> keys = machine.read_snake(view);
  EndToEndCertificate cert = certifier.certify_sampled(keys, plan);
  const std::int64_t steps =
      certificate_steps(static_cast<std::int64_t>(keys.size()),
                        cert.scanned_pairs, plan.fingerprint);
  machine.cost().cert_steps += steps;
  ++machine.cost().certificates;
  return cert;
}

RepairReport certify_and_repair(Machine& machine, const ViewSpec& view,
                                const Certifier& certifier,
                                const RepairOptions& options) {
  RepairReport report;
  report.before = certifier.certify(machine, view);
  report.after = report.before;
  if (report.before.verdict == CertVerdict::kKeysCorrupted) {
    report.outcome = RepairOutcome::kKeysCorrupted;
    return report;
  }
  if (report.before.pass()) {
    report.outcome = RepairOutcome::kCertified;
    return report;
  }

  const PNode size = view_size(machine.graph(), view);
  const std::int64_t steps_before = machine.cost().exec_steps;
  EndToEndCertificate cert = report.before;
  int parity = 0;
  while (cert.verdict == CertVerdict::kWrongOrder &&
         report.passes < options.max_passes) {
    // Alternating-parity OET over the dirty window +-1 rank: the window
    // holds every misplaced key (its complement agrees with the sorted
    // reference), so sorting the window sorts the machine — the Lemma 1
    // dirty-area argument.  Each pass re-certifies; faults striking
    // mid-repair move the window (or corrupt keys) and are seen here.
    const PNode lo = std::max<PNode>(0, cert.dirty_lo - 1);
    const PNode hi = std::min<PNode>(size - 1, cert.dirty_hi + 1);
    oet_window_pass(machine, view, lo, hi, parity);
    parity ^= 1;
    ++report.passes;
    ++machine.cost().repair_passes;
    cert = certifier.certify(machine, view);
  }

  report.after = cert;
  report.repair_steps = machine.cost().exec_steps - steps_before;
  machine.cost().recovery_steps += report.repair_steps;
  if (cert.pass())
    report.outcome = RepairOutcome::kRepaired;
  else if (cert.verdict == CertVerdict::kKeysCorrupted)
    report.outcome = RepairOutcome::kKeysCorrupted;
  else
    report.outcome = RepairOutcome::kBudgetExhausted;
  return report;
}

BlockRepairReport block_certify_and_repair(BlockMachine& machine,
                                           const ViewSpec& view,
                                           const Certifier& certifier,
                                           const RepairOptions& options) {
  BlockRepairReport report;
  report.before = certifier.certify(machine.read_snake(view));
  report.after = report.before;
  if (report.before.verdict == CertVerdict::kKeysCorrupted) {
    report.outcome = RepairOutcome::kKeysCorrupted;
    return report;
  }
  if (report.before.pass()) {
    report.outcome = RepairOutcome::kCertified;
    return report;
  }

  const ProductGraph& pg = machine.graph();
  const PNode size = view_size(pg, view);
  const auto b = static_cast<PNode>(machine.block_size());
  const int hop = pg.factor().dilation;
  const std::int64_t steps_before = machine.cost().exec_steps;

  // Agglomerate the key-granular dirty window to blocks +-1 block —
  // the block Lemma 1: once the fault window closes, every misplaced
  // key sits within one merge-split partner of its sorted block, so
  // sorting the covering block window sorts the machine.
  report.dirty_blocks_lo =
      std::max<PNode>(0, report.before.dirty_lo / b - 1);
  report.dirty_blocks_hi =
      std::min<PNode>(size - 1, report.before.dirty_hi / b + 1);

  EndToEndCertificate cert = report.before;
  int parity = 0;
  while (cert.verdict == CertVerdict::kWrongOrder &&
         report.passes < options.max_passes) {
    const PNode blo = std::max<PNode>(0, cert.dirty_lo / b - 1);
    const PNode bhi = std::min<PNode>(size - 1, cert.dirty_hi / b + 1);

    // Merge-split requires internally sorted blocks; an arbitrary-output
    // fault that struck mid-block can leave one unsorted.  Re-sorting a
    // block is local work the node can always do — charge one local
    // phase (b steps, b comparisons per key touched) when needed.
    bool resorted = false;
    std::vector<PNode> window;
    window.reserve(static_cast<std::size_t>(bhi - blo + 1));
    SnakeWalker walk(pg, view, blo);
    for (PNode rank = blo; rank <= bhi; ++rank, walk.next())
      window.push_back(walk.node());
    for (const PNode node : window) {
      // AUDITOR-EXEMPT(local block re-sort: node-internal repair work,
      // no inter-node exchange for the phase auditor to discipline;
      // charged explicitly below)
      auto blk = machine.mutable_block(node);
      if (!std::is_sorted(blk.begin(), blk.end())) {
        std::sort(blk.begin(), blk.end());
        machine.cost().comparisons += b;
        resorted = true;
      }
    }
    if (resorted) machine.cost().exec_steps += b;

    // One alternating-parity merge-split pass over snake-rank-adjacent
    // blocks in the window — the block analogue of oet_window_pass,
    // anchored to absolute rank parity so alternation is consistent
    // when the window shifts between passes.
    std::vector<CEPair> pairs;
    const PNode start = blo + (((blo & 1) == parity) ? 0 : 1);
    for (PNode rank = start; rank + 1 <= bhi; rank += 2)
      pairs.push_back({window[static_cast<std::size_t>(rank - blo)],
                       window[static_cast<std::size_t>(rank - blo + 1)]});
    if (!pairs.empty()) machine.merge_split_step(pairs, hop);
    parity ^= 1;
    ++report.passes;
    ++machine.cost().repair_passes;
    cert = certifier.certify(machine.read_snake(view));
  }

  report.after = cert;
  report.repair_steps = machine.cost().exec_steps - steps_before;
  machine.cost().recovery_steps += report.repair_steps;
  if (cert.pass())
    report.outcome = RepairOutcome::kRepaired;
  else if (cert.verdict == CertVerdict::kKeysCorrupted)
    report.outcome = RepairOutcome::kKeysCorrupted;
  else
    report.outcome = RepairOutcome::kBudgetExhausted;
  return report;
}

}  // namespace prodsort
