// SortPlan (core/sort_plan.hpp): one compiled phase list, two ways to run
// it.  A plain machine runs each phase as built; attaching a passive
// observer makes the machine expand the same phases into per-phase pair
// lists.  Both must give the same keys, every CostModel counter and the
// same PhaseRecord trace, for every S2 sorter on every topology of the
// prodsort_audit registry (standard_factors, at its --quick size caps)
// and every input family of the benchmark (perfbench/src/inputs.cpp,
// compiled in read-only).  Faulted, TMR and checkpointed machines must
// match both a driver that rebuilds every phase per call (the pre-plan
// algorithm, kept here as the reference) and digests pinned from that
// driver.  The O(n) dirty window is checked against the sort-based
// definition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>

#include "core/hashing.hpp"
#include "core/product_sort.hpp"
#include "core/s2/network_s2.hpp"
#include "core/s2/oracle_s2.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "core/verify.hpp"
#include "inputs.hpp"
#include "network/checkpoint.hpp"
#include "network/recovery.hpp"
#include "product/snake_order.hpp"
#include "sortnet/batcher.hpp"

namespace prodsort {
namespace {

// Passive: forces the per-phase path without validating or perturbing.
class NoOpObserver final : public PhaseObserver {
 public:
  void before_phase(std::span<const Key>, std::span<const CEPair>, int, int,
                    bool) override {}
  void after_phase(std::span<const Key>) override {}
};

std::vector<std::int64_t> counters(const CostModel& c) {
  std::int64_t formula_bits = 0;
  std::memcpy(&formula_bits, &c.formula_time, sizeof formula_bits);
  return {c.s2_phases,     c.routing_phases,   c.exec_steps,
          c.comparisons,   c.exchanges,        c.retries,
          c.reroutes,      c.degraded_phases,  c.recovery_steps,
          c.crashes,       c.reexec_phases,    c.checkpoints,
          c.checkpoint_steps, c.rollbacks,     c.remap_sorts,
          c.tmr_phases,    c.tmr_masked,       c.repair_passes,
          c.cert_steps,    c.certificates,     formula_bits};
}

// Keys, every CostModel counter and the model's fault tallies, hashed.
std::uint64_t digest(const Machine& m, const FaultModel* fm) {
  std::uint64_t h = 0x51ab;
  for (const Key k : m.keys()) h = mix64(h, static_cast<std::uint64_t>(k));
  for (const std::int64_t v : counters(m.cost()))
    h = mix64(h, static_cast<std::uint64_t>(v));
  if (fm != nullptr) {
    const FaultCounters& f = fm->counters();
    for (const std::int64_t v : {f.ce_drops, f.key_corruptions,
                                 f.straggler_phases, f.crashes,
                                 f.comparator_faults})
      h = mix64(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

void expect_same_trace(const std::vector<PhaseRecord>& a,
                       const std::vector<PhaseRecord>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << label << " phase " << i;
    EXPECT_EQ(a[i].lo, b[i].lo) << label << " phase " << i;
    EXPECT_EQ(a[i].hi, b[i].hi) << label << " phase " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << label << " phase " << i;
    EXPECT_EQ(a[i].units, b[i].units) << label << " phase " << i;
  }
}

void expect_same_run(const Machine& a, const Machine& b,
                     const std::string& label) {
  EXPECT_TRUE(std::equal(a.keys().begin(), a.keys().end(), b.keys().begin(),
                         b.keys().end()))
      << label;
  EXPECT_EQ(counters(a.cost()), counters(b.cost())) << label;
}

// The driver before plans: every call rebuilds its views, directions and
// transposition pairs, runs each S2 phase through sort_views and each
// transposition phase as a pair list through compare_exchange_step.
class RebuildingDriver {
 public:
  RebuildingDriver(Machine& m, const S2Sorter& s2,
                   std::vector<PhaseRecord>* trace)
      : m_(m), s2_(s2), trace_(trace) {}

  void sort() {
    const std::vector<ViewSpec> views = all_views(m_.graph(), 1, 2);
    s2_phase(1, 2, views, std::vector<bool>(views.size(), false));
    for (int k = 3; k <= m_.graph().dims(); ++k) level(1, k);
  }

 private:
  void s2_phase(int lo, int hi, std::span<const ViewSpec> views,
                const std::vector<bool>& descending) {
    const double weight = s2_.phase_cost(m_.graph().factor());
    m_.cost().charge_s2_phase(weight);
    if (trace_ != nullptr)
      trace_->push_back(
          {PhaseRecord::Kind::kS2Sort, lo, hi, weight, views.size()});
    s2_.sort_views(m_, views, descending);
  }

  // Step 4's pairs as the pre-plan driver listed them: parent by parent,
  // block pair by block pair, through an explicit in-block offset table.
  std::vector<CEPair> pairs(int lo, int hi, int parity) const {
    const ProductGraph& pg = m_.graph();
    const PNode block_nodes = PNode{pg.radix()} * pg.radix();
    const PNode nblocks = pow_int(pg.radix(), hi - lo - 1);
    std::vector<PNode> offsets;
    for (PNode local = 0; local < block_nodes; ++local)
      offsets.push_back((local % pg.radix()) * pg.weight(lo) +
                        (local / pg.radix()) * pg.weight(lo + 1));
    const auto base = [&](const ViewSpec& parent, PNode z) {
      std::vector<NodeId> digits(static_cast<std::size_t>(hi - lo - 1));
      gray_tuple(pg.radix(), z, digits);
      PNode b = parent.base;
      for (std::size_t j = 0; j < digits.size(); ++j)
        b += digits[j] * pg.weight(lo + 2 + static_cast<int>(j));
      return b;
    };
    std::vector<CEPair> out;
    for (const ViewSpec& parent : all_views(pg, lo, hi))
      for (PNode z = parity; z + 1 < nblocks; z += 2)
        for (const PNode offset : offsets)
          out.push_back({base(parent, z) + offset, base(parent, z + 1) + offset});
    return out;
  }

  void transposition(int lo, int hi, int parity) {
    const LabeledFactor& factor = m_.graph().factor();
    m_.cost().charge_routing_phase(factor.routing_cost);
    const std::vector<CEPair> list = pairs(lo, hi, parity);
    if (trace_ != nullptr)
      trace_->push_back({PhaseRecord::Kind::kTransposition, lo, hi,
                         factor.routing_cost, list.size()});
    m_.compare_exchange_step(list, factor.dilation);
  }

  void block_sorts(int lo, int hi) {
    const std::vector<ViewSpec> blocks = all_views(m_.graph(), lo, lo + 1);
    std::vector<bool> descending;
    for (const ViewSpec& b : blocks)
      descending.push_back(weight_parity(m_.graph(), b.base, lo + 2, hi));
    s2_phase(lo, hi, blocks, descending);
  }

  void level(int lo, int hi) {
    if (hi - lo == 1) {
      const std::vector<ViewSpec> views = all_views(m_.graph(), lo, hi);
      s2_phase(lo, hi, views, std::vector<bool>(views.size(), false));
      return;
    }
    level(lo + 1, hi);
    block_sorts(lo, hi);
    transposition(lo, hi, 0);
    transposition(lo, hi, 1);
    block_sorts(lo, hi);
  }

  Machine& m_;
  const S2Sorter& s2_;
  std::vector<PhaseRecord>* trace_;
};

// A width-n sorting network for NetworkS2, as prodsort_audit builds it.
ComparatorNetwork any_width_network(int n) {
  if ((n & (n - 1)) == 0) return odd_even_merge_sort_network(n);
  return odd_even_transposition_network(n);
}

TEST(SortPlanTest, PlainRunMatchesPerPhaseExpansionAcrossTheRegistry) {
  const OracleS2 oracle;
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  struct Entry {
    const S2Sorter* sorter;  // null: NetworkS2, built per factor
    PNode cap;               // prodsort_audit --quick's size cap
  };
  const Entry entries[] = {
      {&oracle, 4096}, {&shearsort, 700}, {&snake_oet, 300}, {nullptr, 200}};
  int runs = 0;
  for (const LabeledFactor& factor : standard_factors()) {
    const NetworkS2 network(any_width_network(
        static_cast<int>(factor.size()) * static_cast<int>(factor.size())));
    for (const Entry& entry : entries) {
      const S2Sorter& s2 = entry.sorter != nullptr
                               ? *entry.sorter
                               : static_cast<const S2Sorter&>(network);
      for (int r = 2; r <= 6 && pow_int(factor.size(), r) <= entry.cap; ++r) {
        const ProductGraph pg(factor, r);
        const SortPlan plan(pg, &s2);
        EXPECT_EQ(plan.compiled(), s2.oet_schedule(pg.radix()).has_value());
        for (int f = 0; f < perfbench::kFamilyCount; ++f) {
          const perfbench::Family family = perfbench::family_at(f);
          const std::vector<Key> keys = perfbench::make_keys(
              family, static_cast<std::size_t>(pg.num_nodes()), 7 + r);
          const std::string label = factor.name + "^" + std::to_string(r) +
                                    " / " + s2.name() + " / " +
                                    perfbench::family_name(family);
          NoOpObserver observer;
          Machine expanded(pg, keys);
          expanded.set_check_disjoint(false);
          expanded.set_observer(&observer);
          std::vector<PhaseRecord> expanded_trace;
          SortOptions options;
          options.trace = &expanded_trace;
          (void)sort_product_network(expanded, plan, options);

          Machine plain(pg, keys);
          plain.set_check_disjoint(false);  // plain in every build type
          std::vector<PhaseRecord> plain_trace;
          options.trace = &plain_trace;
          (void)sort_product_network(plain, plan, options);

          ASSERT_TRUE(plain.snake_sorted(full_view(pg))) << label;
          expect_same_run(plain, expanded, label);
          expect_same_trace(plain_trace, expanded_trace, label);
          ++runs;
        }
      }
    }
  }
  EXPECT_GT(runs, 300);
}

TEST(SortPlanTest, MatchesTheRebuildingDriverOnAnExecutor) {
  const ProductGraph pg(labeled_path(5), 4);
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  ParallelExecutor four(4);
  for (const S2Sorter* s2 : {static_cast<const S2Sorter*>(&shearsort),
                             static_cast<const S2Sorter*>(&snake_oet)}) {
    const std::vector<Key> keys = perfbench::make_keys(
        perfbench::Family::kAdversary,
        static_cast<std::size_t>(pg.num_nodes()), 3);
    Machine reference(pg, keys);
    reference.set_check_disjoint(false);
    std::vector<PhaseRecord> reference_trace;
    RebuildingDriver(reference, *s2, &reference_trace).sort();

    const SortPlan plan(pg, s2);
    for (ParallelExecutor* executor :
         {static_cast<ParallelExecutor*>(nullptr), &four}) {
      Machine planned(pg, keys, executor);
      planned.set_check_disjoint(false);
      std::vector<PhaseRecord> trace;
      plan.run(planned, &trace);
      const std::string label =
          s2->name() + (executor != nullptr ? " / 4 threads" : " / serial");
      expect_same_run(planned, reference, label);
      expect_same_trace(trace, reference_trace, label);
    }
  }
}

// The pinned digests were taken from the rebuilding driver's algorithm
// before plans existed; RebuildingDriver recomputes the first two.
TEST(SortPlanTest, FaultedAndTmrMachinesMatchTheRebuildingDriver) {
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  struct Case {
    const char* name;
    LabeledFactor (*factor)();
    int dims;
    const S2Sorter* s2;
    const char* schedule;
    bool tmr;
    unsigned seed;
    std::uint64_t pinned;
  };
  const Case cases[] = {
      {"faulted", [] { return labeled_cycle(5); }, 3, &shearsort,
       "seed=11,ce=0.01,corrupt=0.002,stragglers=2x3,"
       "comparators=7@0~40I+31@5A",
       false, 3, 13684433493544961239ull},
      {"tmr", [] { return labeled_path(4); }, 3, &snake_oet,
       "seed=5,ce=0.02,comparators=17@0I+40@3S", true, 4,
       15814571325891915913ull},
  };
  for (const Case& c : cases) {
    const ProductGraph pg(c.factor(), c.dims);
    std::mt19937_64 key_rng(c.seed);
    std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
    for (Key& k : keys) k = static_cast<Key>(key_rng() >> 20);
    std::uint64_t digests[2] = {0, 0};
    for (const bool planned : {false, true}) {
      FaultModel fm(FaultModel::parse_schedule_string(c.schedule));
      if (fm.config().stragglers > 0) fm.select_stragglers(pg.num_nodes());
      Machine m(pg, keys);
      m.set_fault_model(&fm);
      m.set_tmr(c.tmr);
      if (planned) {
        SortOptions options;
        options.s2 = c.s2;
        (void)sort_product_network(m, options);
      } else {
        RebuildingDriver(m, *c.s2, nullptr).sort();
      }
      digests[planned ? 1 : 0] = digest(m, &fm);
    }
    EXPECT_EQ(digests[1], digests[0]) << c.name;
    EXPECT_EQ(digests[1], c.pinned) << c.name;
  }
}

TEST(SortPlanTest, CheckpointedRecoveryMatchesPinnedDigests) {
  const ShearsortS2 shearsort;
  struct Case {
    const char* name;
    LabeledFactor (*factor)();
    const char* schedule;  // empty: no fault model
    unsigned seed;
    RecoveryPath path;
    std::uint64_t pinned;
  };
  const Case cases[] = {
      {"rollback", [] { return labeled_path(3); },
       "seed=9,crashes=0@0+26@14+8@33", 5, RecoveryPath::kRollback,
       16194187803789501445ull},
      {"degraded", [] { return labeled_path(3); }, "seed=9,crashes=13@20P", 5,
       RecoveryPath::kDegradedRemap, 11404759314901626795ull},
      {"clean", [] { return labeled_petersen(); }, "", 6, RecoveryPath::kNone,
       2572209211828757142ull},
  };
  for (const Case& c : cases) {
    const ProductGraph pg(c.factor(), 3);
    std::mt19937_64 key_rng(c.seed);
    std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
    for (Key& k : keys) k = static_cast<Key>(key_rng() >> 20);
    std::unique_ptr<FaultModel> fm;
    if (*c.schedule != '\0')
      fm = std::make_unique<FaultModel>(
          FaultModel::parse_schedule_string(c.schedule));
    Machine m(pg, keys);
    m.set_fault_model(fm.get());
    RecoveryPolicy policy;
    if (fm != nullptr) policy.checkpoint_interval = 8;
    RecoveryController controller(m, policy);
    const SortPlan plan(pg, &shearsort);
    const CrashRecoveryReport report = controller.run(plan);
    EXPECT_EQ(report.path, c.path) << c.name;
    EXPECT_EQ(digest(m, fm.get()), c.pinned) << c.name;
  }
}

TEST(SortPlanTest, CountingObserverSeesEveryPhaseOfThePlan) {
  const ProductGraph pg(labeled_cycle(4), 4);
  const SnakeOETS2 snake_oet;
  const SortPlan plan(pg, &snake_oet);
  const std::vector<Key> keys = perfbench::make_keys(
      perfbench::Family::kUniform, static_cast<std::size_t>(pg.num_nodes()),
      9);
  NoOpObserver observer;
  Machine expanded(pg, keys);
  expanded.set_check_disjoint(false);
  expanded.set_observer(&observer);
  CheckpointManager every_phase({.interval = 5});
  every_phase.attach(expanded);
  plan.run(expanded);

  Machine plain(pg, keys);
  plain.set_check_disjoint(false);
  CheckpointManager counting({.interval = 5});
  counting.attach(plain);
  ASSERT_TRUE(counting.counts_phases_only());
  plan.run(plain);
  EXPECT_EQ(counting.generation(), every_phase.generation());
  expect_same_run(plain, expanded, "cycle4^4 checkpointed");
}

TEST(SortPlanTest, RejectsAMachineOnAnotherGraph) {
  const ProductGraph pg(labeled_path(3), 3);
  const ProductGraph same_shape(labeled_path(3), 3);
  const ProductGraph other(labeled_path(4), 3);
  const SnakeOETS2 snake_oet;
  const ShearsortS2 shearsort;
  const SortPlan plan(pg, &snake_oet);
  const std::vector<Key> keys(27, 1);

  Machine twin(same_shape, keys);
  EXPECT_THROW(plan.run(twin), std::invalid_argument);
  EXPECT_THROW((void)sort_product_network(twin, plan), std::invalid_argument);
  Machine bigger(other, std::vector<Key>(64, 1));
  EXPECT_THROW(plan.run(bigger), std::invalid_argument);
  RecoveryController controller(twin);
  EXPECT_THROW((void)controller.run(plan), std::invalid_argument);

  // The plan's sorter is the sorter: options.s2 is not read.
  Machine m(pg, keys);
  Machine by_plan(pg, keys);
  Machine by_shearsort(pg, keys);
  SortOptions options;
  options.s2 = &shearsort;
  const std::int64_t ran =
      sort_product_network(m, plan, options).cost.comparisons;
  EXPECT_EQ(ran, sort_product_network(by_plan, plan).cost.comparisons);
  EXPECT_NE(ran, sort_product_network(by_shearsort, SortPlan(pg, &shearsort))
                     .cost.comparisons);

  // Phases checked against one shape refuse a machine of another.
  const BlockTransposition blocks = transposition_blocks(pg, 1, 3, 0);
  EXPECT_THROW(bigger.compare_exchange_blocks(blocks, 1),
               std::invalid_argument);
  const CompiledOET compiled(*snake_oet.oet_schedule(3), 3);
  const TileViews views(pg, all_views(pg, 1, 2), std::vector<bool>(3, false));
  EXPECT_THROW(bigger.run_oet_schedule(compiled, views), std::invalid_argument);
  EXPECT_THROW(TileViews(pg, all_views(pg, 1, 3), std::vector<bool>(1, false)),
               std::invalid_argument);
  EXPECT_THROW(BlockTransposition(pg, 1, {1}, {9}), std::invalid_argument);
  EXPECT_THROW(BlockTransposition(pg, 3, {}, {}), std::invalid_argument);
}

TEST(SortPlanTest, PlanMemoryIsPhasesPlusViewsNotPairs) {
  const ShearsortS2 shearsort;
  const ProductGraph big(labeled_path(16), 4);
  const ProductGraph small(labeled_path(8), 4);
  const SortPlan plan(big, &shearsort);
  const SortPlan small_plan(small, &shearsort);
  // One expanded Step-4 transposition phase of merge level 4 on
  // path(16)^4: 128 block pairs of 256 nodes.
  const std::size_t one_phase =
      transposition_blocks(big, 1, 4, 0).pairs() * sizeof(CEPair);
  ASSERT_EQ(one_phase, 32768 * sizeof(CEPair));
  EXPECT_EQ(plan.phases(), 15u);  // (r-1)^2 + (r-1)(r-2)
  EXPECT_LT(plan.bytes() * 8, one_phase) << plan.bytes();
  // Doubling N multiplies views and blocks by 4 and pairs by 16.
  EXPECT_LT(plan.bytes(), 5 * small_plan.bytes())
      << plan.bytes() << " vs " << small_plan.bytes();
}

// ---------------------------------------------------------- dirty window

DirtyWindow sorted_copy_window(std::span<const Key> seq) {
  std::vector<Key> sorted(seq.begin(), seq.end());
  std::sort(sorted.begin(), sorted.end());
  DirtyWindow w;
  for (std::size_t i = 0; i < seq.size(); ++i)
    if (seq[i] != sorted[i]) {
      if (w.lo < 0) w.lo = static_cast<PNode>(i);
      w.hi = static_cast<PNode>(i);
    }
  return w;
}

void expect_window(const std::vector<Key>& seq) {
  const DirtyWindow want = sorted_copy_window(seq);
  const DirtyWindow got = dirty_window(seq);
  std::string text;
  for (const Key k : seq) text += std::to_string(k) + " ";
  EXPECT_EQ(got.lo, want.lo) << text;
  EXPECT_EQ(got.hi, want.hi) << text;
}

TEST(DirtyWindowTest, MatchesTheSortedCopyOnEdgeCases) {
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  const std::vector<std::vector<Key>> cases = {
      {},
      {5},
      {1, 2},
      {2, 1},
      {3, 3},
      {7, 7, 7, 7, 7},
      {1, 2, 3, 4, 5, 6},
      {6, 5, 4, 3, 2, 1},
      {1, 2, 2, 1, 3, 3},
      {2, 2, 1, 1, 2, 2},
      {1, 3, 2, 2, 3, 4},
      {kMax, kMin},
      {kMin, kMax, kMin, kMax},
      {kMin, 0, kMax, kMax, kMin},
      {kMin, kMin, kMax, kMax},
      {0, kMax, kMin, 0},
  };
  for (const std::vector<Key>& seq : cases) expect_window(seq);
  EXPECT_EQ(dirty_window(std::vector<Key>{}).lo, -1);
  EXPECT_EQ(dirty_window(std::vector<Key>{4, 4}).hi, -1);
}

TEST(DirtyWindowTest, MatchesTheSortedCopyExhaustivelyAndAtRandom) {
  // Every sequence of length <= 7 over three values.
  for (int n = 0; n <= 7; ++n) {
    int total = 1;
    for (int i = 0; i < n; ++i) total *= 3;
    for (int code = 0; code < total; ++code) {
      std::vector<Key> seq;
      for (int c = code, i = 0; i < n; ++i, c /= 3) seq.push_back(c % 3);
      expect_window(seq);
    }
  }
  // Random sequences with duplicates and extremes, mostly nearly sorted
  // (the repair loop's shape).
  std::mt19937_64 rng(21);
  const Key extremes[] = {std::numeric_limits<Key>::min(), -1, 0, 1,
                          std::numeric_limits<Key>::max()};
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<Key> seq(rng() % 40);
    for (Key& k : seq)
      k = rng() % 4 == 0 ? extremes[rng() % 5] : static_cast<Key>(rng() % 9);
    if (trial % 2 == 0) {
      std::sort(seq.begin(), seq.end());
      for (int swaps = static_cast<int>(rng() % 3); swaps > 0 && seq.size() > 1;
           --swaps)
        std::swap(seq[rng() % seq.size()], seq[rng() % seq.size()]);
    }
    expect_window(seq);
  }
}

}  // namespace
}  // namespace prodsort
