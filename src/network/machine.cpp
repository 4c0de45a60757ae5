#include "network/machine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>

#include "network/oet_lanes.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

Machine::Machine(const ProductGraph& pg, std::vector<Key> keys,
                 ParallelExecutor* executor)
    : pg_(&pg), keys_(std::move(keys)), executor_(executor) {
  if (static_cast<PNode>(keys_.size()) != pg.num_nodes())
    throw std::invalid_argument("one key per processor required");
}

void Machine::compare_exchange_step(std::span<const CEPair> pairs,
                                    int hop_distance) {
  // One phase of the fault clock per synchronous step (counting alone
  // never perturbs results, so an attached all-zero model stays
  // bit-identical to none).
  const std::int64_t step = faults_ != nullptr ? fault_step_++ : 0;
  const bool crash_due = faults_ != nullptr && faults_->crash_due(step);
  const bool faulty =
      faults_ != nullptr && (faults_->perturbs_compute() || crash_due ||
                             faults_->has_dead_nodes());
  if (observer_ != nullptr) {
    if (tmr_) observer_->on_tmr_phase();
    observer_->before_phase(keys_, pairs, hop_distance, /*block_size=*/1,
                            faulty);
  }
  // A validating observer (the StepAuditor) subsumes the plain sweep
  // with per-invariant reporting; a static disjointness proof
  // (set_statically_audited) discharges it offline.  Passive observers
  // leave it in force.
  if (check_disjoint_ && !statically_audited_ &&
      (observer_ == nullptr || !observer_->supersedes_validation())) {
    std::vector<char> touched(keys_.size(), 0);
    for (const CEPair& p : pairs) {
      if (p.low == p.high || touched[static_cast<std::size_t>(p.low)] ||
          touched[static_cast<std::size_t>(p.high)])
        throw std::logic_error("compare-exchange pairs not disjoint");
      touched[static_cast<std::size_t>(p.low)] = 1;
      touched[static_cast<std::size_t>(p.high)] = 1;
    }
  }

  if (faults_ != nullptr && faults_->has_dead_nodes()) {
    for (const CEPair& p : pairs)
      if (faults_->is_dead(p.low) || faults_->is_dead(p.high))
        throw std::logic_error(
            "compare-exchange pair touches a dead processor (degraded "
            "schedules must pair live nodes only)");
  }

  if (crash_due && fire_crashes(pairs, step)) {
    // Partner re-execution: the phase runs twice, once lost to the
    // crash and once from the partner's buffered copy.
    cost_.exec_steps += hop_distance;
    ++cost_.reexec_phases;
    ++cost_.degraded_phases;
  }

  if (tmr_) {
    tmr_compare_exchange_step(pairs, hop_distance, step);
    if (observer_ != nullptr) observer_->after_phase(keys_);
    return;
  }

  if (faults_ != nullptr && faults_->perturbs_compute()) {
    faulty_compare_exchange_step(pairs, hop_distance, step);
    if (observer_ != nullptr) observer_->after_phase(keys_);
    return;
  }

  std::atomic<std::int64_t> swaps{0};
  auto body = [&](std::int64_t begin, std::int64_t end) {
    std::int64_t local_swaps = 0;
    for (std::int64_t i = begin; i < end; ++i) {
      const CEPair& p = pairs[static_cast<std::size_t>(i)];
      Key& low = keys_[static_cast<std::size_t>(p.low)];
      Key& high = keys_[static_cast<std::size_t>(p.high)];
      if (low > high) {
        std::swap(low, high);
        ++local_swaps;
      }
    }
    swaps.fetch_add(local_swaps, std::memory_order_relaxed);
  };
  if (executor_ != nullptr)
    executor_->parallel_for(static_cast<std::int64_t>(pairs.size()), body);
  else
    body(0, static_cast<std::int64_t>(pairs.size()));

  cost_.exec_steps += hop_distance;
  cost_.comparisons += static_cast<std::int64_t>(pairs.size());
  cost_.exchanges += swaps.load(std::memory_order_relaxed);

  if (observer_ != nullptr) observer_->after_phase(keys_);
}

namespace {

// Copies line `l` of `family` out of the tile buffer, position j to
// out[j * step], complemented if the line is flipped.
void gather_line(const OETLines& family, std::size_t l, const Key* tile,
                 Key* out, std::size_t step) {
  const Key mask = family.flipped[l] != 0 ? ~Key{0} : Key{0};
  const auto length = static_cast<std::size_t>(family.length);
  const std::int32_t* offsets = family.offsets.data() + l * length;
  for (std::size_t j = 0; j < length; ++j)
    out[j * step] = tile[static_cast<std::size_t>(offsets[j])] ^ mask;
}

// gather_line's inverse.
void scatter_line(const OETLines& family, std::size_t l, const Key* in,
                  std::size_t step, Key* tile) {
  const Key mask = family.flipped[l] != 0 ? ~Key{0} : Key{0};
  const auto length = static_cast<std::size_t>(family.length);
  const std::int32_t* offsets = family.offsets.data() + l * length;
  for (std::size_t j = 0; j < length; ++j)
    tile[static_cast<std::size_t>(offsets[j])] = in[j * step] ^ mask;
}

// gather_line straight from a view's keys (tile offset o at
// keys[o * stride]), also complemented when the view descends.
void gather_view_line(const OETLines& family, std::size_t l, const Key* keys,
                      PNode stride, bool descending, Key* out,
                      std::size_t step) {
  const Key mask =
      (family.flipped[l] != 0) != descending ? ~Key{0} : Key{0};
  const auto length = static_cast<std::size_t>(family.length);
  const std::int32_t* offsets = family.offsets.data() + l * length;
  for (std::size_t j = 0; j < length; ++j)
    out[j * step] = keys[offsets[j] * stride] ^ mask;
}

// gather_view_line's inverse.
void scatter_view_line(const OETLines& family, std::size_t l, const Key* in,
                       std::size_t step, bool descending, PNode stride,
                       Key* keys) {
  const Key mask =
      (family.flipped[l] != 0) != descending ? ~Key{0} : Key{0};
  const auto length = static_cast<std::size_t>(family.length);
  const std::int32_t* offsets = family.offsets.data() + l * length;
  for (std::size_t j = 0; j < length; ++j)
    keys[offsets[j] * stride] = in[j * step] ^ mask;
}

// The tiled path for a schedule whose every family is too thin to fill a
// vector: the lines of `group` views at a time run as the lanes of one
// matrix, gathered straight from the machine's keys (lane g * lines + l
// is line l of view g).  `views` starts at view `first` of the call, the
// index `descending` is read at.  Returns the swaps made.
std::int64_t run_view_groups(const OETSchedule& schedule,
                             const OETLaneKernel& kernel, std::size_t group,
                             Key* keys, const ProductGraph& pg,
                             std::span<const ViewSpec> views,
                             const std::vector<bool>& descending,
                             std::size_t first, Key* matrix) {
  std::int64_t swaps = 0;
  for (std::size_t begin = 0; begin < views.size(); begin += group) {
    const std::size_t count = std::min(group, views.size() - begin);
    for (const int pass : schedule.passes) {
      const OETLines& family =
          schedule.families[static_cast<std::size_t>(pass)];
      const std::size_t lines = family.lines();
      const std::size_t lanes = count * lines;
      for (std::size_t g = 0; g < count; ++g) {
        const ViewSpec& v = views[begin + g];
        for (std::size_t l = 0; l < lines; ++l)
          gather_view_line(family, l, keys + v.base, pg.weight(v.lo),
                           descending[first + begin + g],
                           matrix + g * lines + l, lanes);
      }
      swaps += kernel.run(matrix, family.length, lanes, lanes);
      for (std::size_t g = 0; g < count; ++g) {
        const ViewSpec& v = views[begin + g];
        for (std::size_t l = 0; l < lines; ++l)
          scatter_view_line(family, l, matrix + g * lines + l, lanes,
                            descending[first + begin + g], pg.weight(v.lo),
                            keys + v.base);
      }
    }
  }
  return swaps;
}

// The tiled path's work space, one per thread and grown, never shrunk,
// so a run allocates nothing once a thread has seen the largest tile.
struct TileScratch {
  std::vector<Key> buffer;
  std::vector<Key> matrix;
};

Key* at_least(std::vector<Key>& v, std::size_t size) {
  if (v.size() < size) v.resize(size);
  return v.data();
}

}  // namespace

void Machine::run_oet_schedule(const OETSchedule& schedule,
                               std::span<const ViewSpec> views,
                               const std::vector<bool>& descending) {
  const TileViews tiles(*pg_, {views.begin(), views.end()}, descending);
  run_oet_schedule(CompiledOET(schedule, pg_->radix()), tiles);
}

void Machine::run_oet_schedule(const CompiledOET& schedule,
                               const TileViews& views) {
  if (schedule.side() != pg_->radix() || !views.fits(*pg_))
    throw std::invalid_argument(
        "S2 schedule: checked against a graph of another shape");
  if (views.views().empty()) return;
  if (plain())
    run_oet_tiled(schedule, views.views(), views.descending());
  else
    run_oet_phases(schedule.schedule(), views.views(), views.descending());
}

void Machine::run_oet_tiled(const CompiledOET& compiled,
                            std::span<const ViewSpec> views,
                            const std::vector<bool>& descending) {
  using Layout = CompiledOET::Layout;
  const OETSchedule& schedule = compiled.schedule();
  const NodeId n = pg_->radix();
  const auto tile = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  const OETLaneKernel& kernel = oet_lane_kernel();

  // Views are disjoint, so each one runs its whole schedule on its own
  // tile; the swap total is a sum, identical for any split of the views.
  // Complementing reverses the key order, so a descending view — or a
  // flipped line — runs through the ascending kernels and swaps exactly
  // where its inverted pairs would.
  std::atomic<std::int64_t> swaps{0};
  auto body = [&](std::int64_t begin, std::int64_t end) {
    thread_local TileScratch scratch;
    Key* const buffer = at_least(scratch.buffer, tile);
    Key* const matrix = at_least(scratch.matrix, compiled.matrix_size_);
    std::int64_t local_swaps = 0;
    if (compiled.group_ > 1) {
      const auto first = static_cast<std::size_t>(begin);
      swaps.fetch_add(
          run_view_groups(schedule, kernel, compiled.group_, keys_.data(),
                          *pg_,
                          views.subspan(first,
                                        static_cast<std::size_t>(end - begin)),
                          descending, first, matrix),
          std::memory_order_relaxed);
      return;
    }
    for (std::int64_t vi = begin; vi < end; ++vi) {
      const ViewSpec& v = views[static_cast<std::size_t>(vi)];
      const PNode stride = pg_->weight(v.lo);
      Key* const keys = keys_.data() + v.base;
      const Key view_mask =
          descending[static_cast<std::size_t>(vi)] ? ~Key{0} : Key{0};
      for (std::size_t o = 0; o < tile; ++o)
        buffer[o] = keys[static_cast<PNode>(o) * stride] ^ view_mask;
      for (const int pass : schedule.passes) {
        const auto f = static_cast<std::size_t>(pass);
        const OETLines& family = schedule.families[f];
        const std::size_t lines = family.lines();
        switch (compiled.layouts_[f]) {
          case Layout::kInPlace:
            local_swaps += kernel.run(buffer, family.length, lines,
                                      static_cast<std::size_t>(n));
            break;
          case Layout::kLanes:
            for (std::size_t l = 0; l < lines; ++l)
              gather_line(family, l, buffer, matrix + l, lines);
            local_swaps += kernel.run(matrix, family.length, lines, lines);
            for (std::size_t l = 0; l < lines; ++l)
              scatter_line(family, l, matrix + l, lines, buffer);
            break;
        }
      }
      for (std::size_t o = 0; o < tile; ++o)
        keys[static_cast<PNode>(o) * stride] = buffer[o] ^ view_mask;
    }
    swaps.fetch_add(local_swaps, std::memory_order_relaxed);
  };
  const auto count = static_cast<std::int64_t>(views.size());
  if (executor_ != nullptr)
    executor_->parallel_for(count, body);
  else
    body(0, count);

  // The per-phase path's charges: the dilation per phase, one comparison
  // per pair, one exchange per swap.
  cost_.exec_steps +=
      static_cast<std::int64_t>(pg_->factor().dilation) * compiled.phases();
  cost_.comparisons += count * compiled.pairs_per_view();
  cost_.exchanges += swaps.load(std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->after_phases(keys_, compiled.phases());
}

void Machine::compare_exchange_blocks(const BlockTransposition& phase,
                                      int hop_distance) {
  if (!phase.fits(*pg_))
    throw std::invalid_argument(
        "block transposition: built for a graph of another shape");
  if (!plain()) {
    compare_exchange_step(phase.expand(), hop_distance);
    return;
  }
  // The observer, if any, only counts phases: it reads neither keys nor
  // pairs, so it gets the phase's callbacks with the pair list left empty.
  if (observer_ != nullptr)
    observer_->before_phase(keys_, {}, hop_distance, /*block_size=*/1,
                            /*faulty=*/false);
  const std::vector<PNode>& low = phase.low();
  const std::vector<PNode>& high = phase.high();
  const PNode stride = phase.stride();
  const PNode nodes = phase.block_nodes();
  std::atomic<std::int64_t> swaps{0};
  auto body = [&](std::int64_t begin, std::int64_t end) {
    std::int64_t local_swaps = 0;
    for (std::int64_t b = begin; b < end; ++b) {
      Key* const lo = keys_.data() + low[static_cast<std::size_t>(b)];
      Key* const hi = keys_.data() + high[static_cast<std::size_t>(b)];
      for (PNode k = 0; k < nodes; ++k) {
        // Branchy, as in compare_exchange_step: the two blocks were just
        // snake-sorted in opposite directions, so the outcome flips in
        // one row of the block pair and the branch predicts well.
        Key& x = lo[k * stride];
        Key& y = hi[k * stride];
        if (x > y) {
          std::swap(x, y);
          ++local_swaps;
        }
      }
    }
    swaps.fetch_add(local_swaps, std::memory_order_relaxed);
  };
  const auto count = static_cast<std::int64_t>(low.size());
  if (executor_ != nullptr)
    executor_->parallel_for(count, body);
  else
    body(0, count);

  cost_.exec_steps += hop_distance;
  cost_.comparisons += static_cast<std::int64_t>(phase.pairs());
  cost_.exchanges += swaps.load(std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->after_phase(keys_);
}

void Machine::run_oet_phases(const OETSchedule& schedule,
                             std::span<const ViewSpec> views,
                             const std::vector<bool>& descending) {
  // A pass issues only two distinct pair lists, one per phase parity;
  // build both lists of each family once, in the order fault decisions
  // and schedule hashes key on: view by view, line by line, position by
  // position.
  std::vector<std::array<std::vector<CEPair>, 2>> pairs(
      schedule.families.size());
  for (std::size_t f = 0; f < schedule.families.size(); ++f) {
    const OETLines& family = schedule.families[f];
    const auto length = static_cast<std::size_t>(family.length);
    for (int parity = 0; parity < 2; ++parity) {
      std::vector<CEPair>& list = pairs[f][static_cast<std::size_t>(parity)];
      list.reserve(views.size() * family.lines() *
                   static_cast<std::size_t>((family.length - parity) / 2));
      for (std::size_t vi = 0; vi < views.size(); ++vi) {
        const ViewSpec& v = views[vi];
        const PNode stride = pg_->weight(v.lo);
        for (std::size_t l = 0; l < family.lines(); ++l) {
          const bool desc = (family.flipped[l] != 0) != descending[vi];
          const std::int32_t* offsets = family.offsets.data() + l * length;
          for (auto i = static_cast<std::size_t>(parity); i + 1 < length;
               i += 2) {
            const PNode a = v.base + offsets[i] * stride;
            const PNode b = v.base + offsets[i + 1] * stride;
            list.push_back(desc ? CEPair{b, a} : CEPair{a, b});
          }
        }
      }
    }
  }
  for (const int pass : schedule.passes) {
    const auto f = static_cast<std::size_t>(pass);
    for (int phase = 0; phase < schedule.families[f].length; ++phase)
      compare_exchange_step(pairs[f][static_cast<std::size_t>(phase % 2)],
                            pg_->factor().dilation);
  }
}

bool Machine::fire_crashes(std::span<const CEPair> pairs, std::int64_t step) {
  FaultModel& fm = *faults_;
  bool reexec = false;
  while (const std::optional<CrashEvent> crash = fm.take_crash(step)) {
    const PNode v = crash->node;
    if (v < 0 || static_cast<std::size_t>(v) >= keys_.size())
      throw std::logic_error("crash event names a node outside the machine");
    if (fm.is_dead(v)) continue;  // already dead: fail-stop is idempotent
    ++cost_.crashes;

    bool paired = false;
    for (const CEPair& p : pairs)
      if (p.low == v || p.high == v) {
        paired = true;
        break;
      }

    if (!crash->permanent && paired) {
      // The node died mid-exchange: its partner holds both values of the
      // pair (the Section-4 two-value memory), so the rebooted node gets
      // its key back and the phase re-executes.  The caller charges the
      // repeated phase.
      reexec = true;
      continue;
    }

    // No live copy exists in the fabric (idle node, or the node is gone
    // for good): the key decays and the caller must escalate.
    keys_[static_cast<std::size_t>(v)] = fm.crash_garbage(v, step);
    fm.kill(v);
    throw CrashInterrupt(v, step, crash->permanent);
  }
  return reexec;
}

void Machine::faulty_compare_exchange_step(std::span<const CEPair> pairs,
                                           int hop_distance,
                                           std::int64_t step) {
  FaultModel& fm = *faults_;

  // Per-pair fault decisions are pure hashes of (step, pair index) and
  // every pair touches disjoint keys, so the parallel path stays
  // deterministic for any thread count.
  std::atomic<std::int64_t> swaps{0}, drops{0}, corruptions{0}, comp_faults{0};
  auto body = [&](std::int64_t begin, std::int64_t end) {
    std::int64_t local_swaps = 0, local_drops = 0, local_corruptions = 0;
    std::int64_t local_comp = 0;
    for (std::int64_t i = begin; i < end; ++i) {
      const CEPair& p = pairs[static_cast<std::size_t>(i)];
      Key& low = keys_[static_cast<std::size_t>(p.low)];
      Key& high = keys_[static_cast<std::size_t>(p.high)];

      // A silently-broken comparator at either endpoint hijacks the
      // exchange (lower node wins when both are faulty).  Nothing loud
      // happens: no drop, no throw — only the certificate layer can
      // tell (core/certifier.hpp).
      if (fm.has_comparator_faults()) {
        std::optional<ComparatorFaultKind> cf = fm.comparator_fault(p.low, step);
        PNode cf_node = p.low;
        if (!cf) {
          cf = fm.comparator_fault(p.high, step);
          cf_node = p.high;
        }
        if (cf) {
          ++local_comp;
          switch (*cf) {
            case ComparatorFaultKind::kStuckPassThrough:
              break;  // the exchange silently never happens
            case ComparatorFaultKind::kInverted:
              if (low < high) {
                std::swap(low, high);  // max and min come out swapped
                ++local_swaps;
              }
              break;
            case ComparatorFaultKind::kArbitrary:
              if (low > high) {
                std::swap(low, high);
                ++local_swaps;
              }
              (cf_node == p.low ? low : high) =
                  fm.comparator_garbage(cf_node, step, i);
              break;
          }
          continue;
        }
      }

      if (fm.drop_compare_exchange(step, i)) {  // message lost: no exchange
        ++local_drops;
        continue;
      }
      if (low > high) {
        std::swap(low, high);
        ++local_swaps;
      }
      if (fm.corrupt_key(step, i)) {
        low = fm.corrupted_value(step, i, low);
        ++local_corruptions;
      }
    }
    swaps.fetch_add(local_swaps, std::memory_order_relaxed);
    drops.fetch_add(local_drops, std::memory_order_relaxed);
    corruptions.fetch_add(local_corruptions, std::memory_order_relaxed);
    comp_faults.fetch_add(local_comp, std::memory_order_relaxed);
  };
  if (executor_ != nullptr)
    executor_->parallel_for(static_cast<std::int64_t>(pairs.size()), body);
  else
    body(0, static_cast<std::int64_t>(pairs.size()));

  // Straggler slowdown: the phase is synchronous, so one slow processor
  // stretches the whole step.
  int slow = 1;
  if (fm.config().stragglers > 0) {
    for (const CEPair& p : pairs) {
      if (fm.is_straggler(p.low) || fm.is_straggler(p.high)) {
        slow = fm.config().straggler_factor;
        break;
      }
    }
  }

  const std::int64_t dropped = drops.load(std::memory_order_relaxed);
  const std::int64_t corrupted = corruptions.load(std::memory_order_relaxed);
  cost_.exec_steps += static_cast<std::int64_t>(hop_distance) * slow;
  cost_.comparisons += static_cast<std::int64_t>(pairs.size()) - dropped;
  cost_.exchanges += swaps.load(std::memory_order_relaxed);
  cost_.retries += dropped;
  if (dropped > 0 || corrupted > 0 || slow > 1) ++cost_.degraded_phases;

  fm.counters().ce_drops += dropped;
  fm.counters().key_corruptions += corrupted;
  // Ground truth for tests and soaks only: a comparator fault is
  // deliberately absent from degraded_phases — silence is the point.
  fm.counters().comparator_faults +=
      comp_faults.load(std::memory_order_relaxed);
  if (slow > 1) ++fm.counters().straggler_phases;
}

void Machine::tmr_compare_exchange_step(std::span<const CEPair> pairs,
                                        int hop_distance, std::int64_t step) {
  FaultModel* fm = faults_;
  const bool perturbed = fm != nullptr && fm->perturbs_compute();
  const bool comparator_faults = perturbed && fm->has_comparator_faults();
  const bool message_faults =
      perturbed && (fm->config().ce_drop_rate > 0 ||
                    fm->config().key_corrupt_rate > 0);

  // Each pair is evaluated by three comparator replicas; the majority
  // (low, high) outcome is committed.  Replica r of pair i consumes the
  // per-message decision streams under event id i*3+r, and a
  // silently-faulty comparator at a node corrupts only that node's
  // seed-hashed replica — all pure hashes, so any thread count commits
  // identical outcomes.  A pair whose endpoints have no active
  // comparator fault, in a phase with no message faults, has three
  // identical replicas: it runs as one plain compare-exchange, which
  // commits (and counts) exactly what the vote would.
  std::atomic<std::int64_t> swaps{0}, drops{0}, corruptions{0}, comp_faults{0},
      masked{0};
  auto body = [&](std::int64_t begin, std::int64_t end) {
    std::int64_t local_swaps = 0, local_drops = 0, local_corruptions = 0;
    std::int64_t local_comp = 0, local_masked = 0;
    for (std::int64_t i = begin; i < end; ++i) {
      const CEPair& p = pairs[static_cast<std::size_t>(i)];
      const Key in_low = keys_[static_cast<std::size_t>(p.low)];
      const Key in_high = keys_[static_cast<std::size_t>(p.high)];
      // Each endpoint's active fault, and the replica it occupies (-1
      // when the endpoint is healthy).
      std::optional<ComparatorFaultKind> low_fault;
      std::optional<ComparatorFaultKind> high_fault;
      if (comparator_faults) {
        low_fault = fm->comparator_fault(p.low, step);
        high_fault = fm->comparator_fault(p.high, step);
      }
      if (!low_fault && !high_fault && !message_faults) {
        if (in_low > in_high) {
          keys_[static_cast<std::size_t>(p.low)] = in_high;
          keys_[static_cast<std::size_t>(p.high)] = in_low;
          ++local_swaps;
        }
        continue;
      }
      const int low_replica = low_fault ? fm->faulty_replica(p.low) : -1;
      const int high_replica = high_fault ? fm->faulty_replica(p.high) : -1;
      Key out_low[3];
      Key out_high[3];
      bool replica_perturbed[3] = {false, false, false};

      for (int r = 0; r < 3; ++r) {
        Key lo = in_low;
        Key hi = in_high;
        const std::int64_t ev = i * 3 + r;
        // The low endpoint's fault wins a replica both occupy.
        std::optional<ComparatorFaultKind> cf;
        PNode cf_node = -1;
        if (low_replica == r) {
          cf = low_fault;
          cf_node = p.low;
        } else if (high_replica == r) {
          cf = high_fault;
          cf_node = p.high;
        }
        if (cf) {
          ++local_comp;
          replica_perturbed[r] = true;
          switch (*cf) {
            case ComparatorFaultKind::kStuckPassThrough:
              break;
            case ComparatorFaultKind::kInverted:
              if (lo < hi) std::swap(lo, hi);
              break;
            case ComparatorFaultKind::kArbitrary:
              if (lo > hi) std::swap(lo, hi);
              (cf_node == p.low ? lo : hi) =
                  fm->comparator_garbage(cf_node, step, i);
              break;
          }
        } else if (perturbed && fm->drop_compare_exchange(step, ev)) {
          ++local_drops;
          replica_perturbed[r] = true;  // message lost: outputs = inputs
        } else {
          if (lo > hi) std::swap(lo, hi);
          if (perturbed && fm->corrupt_key(step, ev)) {
            lo = fm->corrupted_value(step, ev, lo);
            ++local_corruptions;
            replica_perturbed[r] = true;
          }
        }
        out_low[r] = lo;
        out_high[r] = hi;
      }

      const auto agree = [&](int a, int b) {
        return out_low[a] == out_low[b] && out_high[a] == out_high[b];
      };
      // Majority vote; a three-way disagreement falls back to replica 0.
      const int win = (agree(0, 1) || agree(0, 2)) ? 0 : (agree(1, 2) ? 1 : 0);
      for (int r = 0; r < 3; ++r)
        if (replica_perturbed[r] && !agree(r, win)) ++local_masked;

      keys_[static_cast<std::size_t>(p.low)] = out_low[win];
      keys_[static_cast<std::size_t>(p.high)] = out_high[win];
      if (out_low[win] != in_low || out_high[win] != in_high) ++local_swaps;
    }
    swaps.fetch_add(local_swaps, std::memory_order_relaxed);
    drops.fetch_add(local_drops, std::memory_order_relaxed);
    corruptions.fetch_add(local_corruptions, std::memory_order_relaxed);
    comp_faults.fetch_add(local_comp, std::memory_order_relaxed);
    masked.fetch_add(local_masked, std::memory_order_relaxed);
  };
  if (executor_ != nullptr)
    executor_->parallel_for(static_cast<std::int64_t>(pairs.size()), body);
  else
    body(0, static_cast<std::int64_t>(pairs.size()));

  int slow = 1;
  if (fm != nullptr && fm->config().stragglers > 0) {
    for (const CEPair& p : pairs) {
      if (fm->is_straggler(p.low) || fm->is_straggler(p.high)) {
        slow = fm->config().straggler_factor;
        break;
      }
    }
  }

  // Honest redundancy charge: three replica evaluations per pair and
  // one extra synchronous step for the vote.
  cost_.exec_steps += static_cast<std::int64_t>(hop_distance) * slow + 1;
  cost_.comparisons += 3 * static_cast<std::int64_t>(pairs.size());
  cost_.exchanges += swaps.load(std::memory_order_relaxed);
  ++cost_.tmr_phases;
  cost_.tmr_masked += masked.load(std::memory_order_relaxed);
  if (slow > 1) ++cost_.degraded_phases;

  if (fm != nullptr) {
    // Replica-level drops/corruptions are absorbed by the vote, never
    // redone, so they land in the model's tallies but not in retries.
    fm->counters().ce_drops += drops.load(std::memory_order_relaxed);
    fm->counters().key_corruptions +=
        corruptions.load(std::memory_order_relaxed);
    fm->counters().comparator_faults +=
        comp_faults.load(std::memory_order_relaxed);
    if (slow > 1) ++fm->counters().straggler_phases;
  }
}

std::vector<Key> Machine::read_snake(const ViewSpec& view) const {
  const PNode size = view_size(*pg_, view);
  std::vector<Key> out(static_cast<std::size_t>(size));
  SnakeWalker walk(*pg_, view);
  for (Key& k : out) {
    k = key(walk.node());
    walk.next();
  }
  return out;
}

bool Machine::snake_sorted(const ViewSpec& view, bool descending) const {
  const auto seq = read_snake(view);
  if (descending)
    return std::is_sorted(seq.rbegin(), seq.rend());
  return std::is_sorted(seq.begin(), seq.end());
}

}  // namespace prodsort
