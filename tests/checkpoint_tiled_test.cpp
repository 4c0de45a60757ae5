// Differential test of checkpointing under the tiled S2 path.
//
// A CheckpointManager with nothing chained behind it only counts phases,
// so a machine with no fault model keeps running its S2 schedules tile by
// tile and reports each call's phases at once (Machine::run_oet_schedule).
// Every case here runs the same sort twice: once that way, and once with
// a passive observer chained behind the manager, which forces per-phase
// execution.  Keys, every CostModel field and the manager's generation()
// must be identical, serial and on a 4-thread executor; so must a
// fault-free RecoveryController::run report.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "core/product_sort.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "network/checkpoint.hpp"
#include "network/recovery.hpp"

namespace prodsort {
namespace {

// Passive: forces the per-phase path without validating or perturbing.
class NoOpObserver final : public PhaseObserver {
 public:
  void before_phase(std::span<const Key>, std::span<const CEPair>, int, int,
                    bool) override {
    ++phases;
  }
  void after_phase(std::span<const Key>) override {}
  std::int64_t phases = 0;
};

// Counts phases only, so the machine may batch them.
class PhaseCounter final : public PhaseObserver {
 public:
  [[nodiscard]] bool counts_phases_only() const override { return true; }
  void before_phase(std::span<const Key>, std::span<const CEPair>, int, int,
                    bool) override {
    ++single;
  }
  void after_phase(std::span<const Key>) override {}
  void after_phases(std::span<const Key>, std::int64_t count) override {
    ++batches;
    batched += count;
  }
  std::int64_t single = 0;   ///< phases reported one by one
  std::int64_t batches = 0;  ///< after_phases calls
  std::int64_t batched = 0;  ///< phases reported through them
};

std::vector<Key> random_keys(PNode count, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(static_cast<std::size_t>(count));
  for (Key& k : keys) k = static_cast<Key>(rng() >> 20);
  return keys;
}

void expect_same_cost(const CostModel& a, const CostModel& b,
                      const std::string& label) {
#define PRODSORT_EXPECT_FIELD(f) EXPECT_EQ(a.f, b.f) << label << ": " #f
  PRODSORT_EXPECT_FIELD(s2_phases);
  PRODSORT_EXPECT_FIELD(routing_phases);
  PRODSORT_EXPECT_FIELD(formula_time);
  PRODSORT_EXPECT_FIELD(exec_steps);
  PRODSORT_EXPECT_FIELD(comparisons);
  PRODSORT_EXPECT_FIELD(exchanges);
  PRODSORT_EXPECT_FIELD(retries);
  PRODSORT_EXPECT_FIELD(reroutes);
  PRODSORT_EXPECT_FIELD(degraded_phases);
  PRODSORT_EXPECT_FIELD(recovery_steps);
  PRODSORT_EXPECT_FIELD(crashes);
  PRODSORT_EXPECT_FIELD(reexec_phases);
  PRODSORT_EXPECT_FIELD(checkpoints);
  PRODSORT_EXPECT_FIELD(checkpoint_steps);
  PRODSORT_EXPECT_FIELD(rollbacks);
  PRODSORT_EXPECT_FIELD(remap_sorts);
  PRODSORT_EXPECT_FIELD(tmr_phases);
  PRODSORT_EXPECT_FIELD(tmr_masked);
  PRODSORT_EXPECT_FIELD(repair_passes);
  PRODSORT_EXPECT_FIELD(cert_steps);
  PRODSORT_EXPECT_FIELD(certificates);
  PRODSORT_EXPECT_FIELD(service_attempts);
  PRODSORT_EXPECT_FIELD(service_retries);
#undef PRODSORT_EXPECT_FIELD
}

void expect_same_keys(const Machine& a, const Machine& b,
                      const std::string& label) {
  EXPECT_TRUE(std::equal(a.keys().begin(), a.keys().end(), b.keys().begin(),
                         b.keys().end()))
      << label;
}

struct Topology {
  const char* name;
  LabeledFactor (*factor)();
  int dims;
};

const Topology kTopologies[] = {
    {"path4^3", [] { return labeled_path(4); }, 3},
    {"cycle5^3", [] { return labeled_cycle(5); }, 3},
    {"petersen^3", [] { return labeled_petersen(); }, 3},
    {"tree7^3", [] { return labeled_binary_tree(3); }, 3},  // dilation 2
};

constexpr int kIntervals[] = {0, 1, 3, 8};

class CheckpointTiledTest : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] const Topology& topology() const {
    return kTopologies[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(CheckpointTiledTest, CheckpointedSortMatchesPerPhaseReference) {
  const Topology& topo = topology();
  const ProductGraph pg(topo.factor(), topo.dims);
  const std::vector<Key> keys = random_keys(pg.num_nodes(), 11);
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  ParallelExecutor four(4);

  for (const S2Sorter* s2 : {static_cast<const S2Sorter*>(&shearsort),
                             static_cast<const S2Sorter*>(&snake_oet)}) {
    SortOptions options;
    options.s2 = s2;
    for (const int interval : kIntervals) {
      const CheckpointConfig config{.interval = interval,
                                    .snapshot_on_attach = true};
      NoOpObserver chained;
      Machine reference(pg, keys);
      reference.set_check_disjoint(false);
      reference.set_observer(&chained);
      CheckpointManager reference_manager(config);
      reference_manager.attach(reference);
      ASSERT_FALSE(reference_manager.counts_phases_only());
      (void)sort_product_network(reference, options);
      ASSERT_TRUE(reference.snake_sorted(full_view(pg)));
      ASSERT_GT(chained.phases, 0);

      for (ParallelExecutor* executor :
           {static_cast<ParallelExecutor*>(nullptr), &four}) {
        Machine tiled(pg, keys, executor);
        tiled.set_check_disjoint(false);
        CheckpointManager manager(config);
        manager.attach(tiled);
        ASSERT_TRUE(manager.counts_phases_only());
        (void)sort_product_network(tiled, options);
        const std::string label = std::string(topo.name) + " / " +
                                  s2->name() + " / interval " +
                                  std::to_string(interval) +
                                  (executor ? " / 4 threads" : " / serial");
        expect_same_keys(tiled, reference, label);
        expect_same_cost(tiled.cost(), reference.cost(), label);
        EXPECT_EQ(manager.generation(), reference_manager.generation())
            << label;
      }
    }
  }
}

TEST_P(CheckpointTiledTest, RecoveryReportMatchesPerPhaseReference) {
  const Topology& topo = topology();
  const ProductGraph pg(topo.factor(), topo.dims);
  const std::vector<Key> keys = random_keys(pg.num_nodes(), 12);
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  ParallelExecutor four(4);

  for (const S2Sorter* s2 : {static_cast<const S2Sorter*>(&shearsort),
                             static_cast<const S2Sorter*>(&snake_oet)}) {
    SortOptions options;
    options.s2 = s2;
    for (const int interval : kIntervals) {
      const RecoveryPolicy policy{.checkpoint_interval = interval};
      NoOpObserver chained;
      Machine reference(pg, keys);
      reference.set_check_disjoint(false);
      reference.set_observer(&chained);
      const CrashRecoveryReport want =
          RecoveryController(reference, policy).run(options);
      ASSERT_TRUE(want.certified);
      ASSERT_GT(want.checkpoints, 0);

      for (ParallelExecutor* executor :
           {static_cast<ParallelExecutor*>(nullptr), &four}) {
        Machine tiled(pg, keys, executor);
        tiled.set_check_disjoint(false);
        const CrashRecoveryReport got =
            RecoveryController(tiled, policy).run(options);
        const std::string label = std::string(topo.name) + " / " +
                                  s2->name() + " / interval " +
                                  std::to_string(interval) +
                                  (executor ? " / 4 threads" : " / serial");
        EXPECT_EQ(got.path, want.path) << label;
        EXPECT_EQ(got.sorted, want.sorted) << label;
        EXPECT_EQ(got.data_loss, want.data_loss) << label;
        EXPECT_EQ(got.certified, want.certified) << label;
        EXPECT_EQ(got.cert_failed, want.cert_failed) << label;
        EXPECT_EQ(got.cert_escalated, want.cert_escalated) << label;
        EXPECT_EQ(got.cert_level, want.cert_level) << label;
        EXPECT_EQ(got.suspect_nodes, want.suspect_nodes) << label;
        EXPECT_EQ(got.rollbacks, want.rollbacks) << label;
        EXPECT_EQ(got.remaps, want.remaps) << label;
        EXPECT_EQ(got.repair_passes, want.repair_passes) << label;
        EXPECT_EQ(got.crashes, want.crashes) << label;
        EXPECT_EQ(got.checkpoints, want.checkpoints) << label;
        EXPECT_EQ(got.checkpoint_steps, want.checkpoint_steps) << label;
        EXPECT_EQ(got.recovery_steps, want.recovery_steps) << label;
        EXPECT_EQ(got.reexec_phases, want.reexec_phases) << label;
        EXPECT_EQ(got.dead, want.dead) << label;
        EXPECT_EQ(got.lost_entries, want.lost_entries) << label;
        EXPECT_EQ(got.output, want.output) << label;
        expect_same_keys(tiled, reference, label);
        expect_same_cost(tiled.cost(), reference.cost(), label);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CheckpointTiledTest,
    ::testing::Range(0, static_cast<int>(std::size(kTopologies))),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = kTopologies[static_cast<std::size_t>(info.param)].name;
      std::replace(name.begin(), name.end(), '^', '_');
      return name;
    });

TEST(CheckpointTiledTest, CountingObserverGetsOneCallbackPerS2Call) {
  const ProductGraph pg(labeled_cycle(5), 3);
  const std::vector<Key> keys = random_keys(pg.num_nodes(), 13);
  const SnakeOETS2 snake_oet;
  SortOptions options;
  options.s2 = &snake_oet;

  NoOpObserver every_phase;
  Machine reference(pg, keys);
  reference.set_check_disjoint(false);
  reference.set_observer(&every_phase);
  (void)sort_product_network(reference, options);

  PhaseCounter counter;
  Machine tiled(pg, keys);
  tiled.set_check_disjoint(false);
  tiled.set_observer(&counter);
  (void)sort_product_network(tiled, options);

  // Transposition phases still arrive one by one; each S2 call arrives
  // as one batch; together they are every phase the reference saw.
  EXPECT_EQ(counter.batches, tiled.cost().s2_phases);
  EXPECT_EQ(counter.single, tiled.cost().routing_phases);
  EXPECT_EQ(counter.single + counter.batched, every_phase.phases);
  expect_same_keys(tiled, reference, "cycle5^3");
  expect_same_cost(tiled.cost(), reference.cost(), "cycle5^3");
}

TEST(CheckpointTiledTest, BatchedCountTakesThePerPhaseSnapshots) {
  // after_phases(n) against n after_phase calls, over uneven batch sizes
  // that straddle, hit and skip interval boundaries.
  const ProductGraph pg(labeled_path(3), 2);
  const std::vector<Key> keys = random_keys(pg.num_nodes(), 14);
  const std::int64_t batches[] = {0, 1, 2, 5, 7, 13, 3, 8, 1, 24, 6};
  for (const int interval : {0, 1, 2, 3, 5, 8}) {
    for (const bool on_attach : {false, true}) {
      const CheckpointConfig config{.interval = interval,
                                    .snapshot_on_attach = on_attach};
      Machine one_by_one(pg, keys);
      Machine batched(pg, keys);
      CheckpointManager a(config);
      CheckpointManager b(config);
      a.attach(one_by_one);
      b.attach(batched);
      for (const std::int64_t n : batches) {
        for (std::int64_t i = 0; i < n; ++i) a.after_phase(one_by_one.keys());
        b.after_phases(batched.keys(), n);
        const std::string label = "interval " + std::to_string(interval) +
                                  " after a batch of " + std::to_string(n);
        ASSERT_EQ(b.generation(), a.generation()) << label;
        expect_same_cost(batched.cost(), one_by_one.cost(), label);
      }
    }
  }
}

}  // namespace
}  // namespace prodsort
