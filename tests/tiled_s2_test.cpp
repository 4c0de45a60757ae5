// Differential test of Machine::run_oet_schedule's two execution paths.
//
// A plain machine runs an S2 schedule tile by tile; attaching any
// observer restores per-phase execution.  Every case here sorts the same
// keys twice — once on a plain machine (the tiled path, serial and on a
// 4-thread executor) and once with a no-op passive observer attached
// (the per-phase reference) — and demands bit-identical keys and
// identical CostModel counters.  The benchmark's input families
// (perfbench/src/inputs.cpp, compiled in read-only) run on the
// benchmark's own grid, and one 4 x 4 tile is swept over every 0-1
// input.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "core/product_sort.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "inputs.hpp"

namespace prodsort {
namespace {

// Passive: forces the per-phase path without validating or perturbing.
class NoOpObserver final : public PhaseObserver {
 public:
  void before_phase(std::span<const Key>, std::span<const CEPair>, int, int,
                    bool) override {
    ++phases_;
  }
  void after_phase(std::span<const Key>) override {}
  [[nodiscard]] std::int64_t phases() const noexcept { return phases_; }

 private:
  std::int64_t phases_ = 0;
};

enum class Pattern {
  kUniform,
  kFewDistinct,
  kSorted,
  kReversed,
  kOrganPipe,
  kZeroOne
};

struct PatternSpec {
  Pattern pattern;
  const char* name;
};

constexpr PatternSpec kPatterns[] = {
    {Pattern::kUniform, "uniform"},
    {Pattern::kFewDistinct, "few-distinct"},
    {Pattern::kSorted, "sorted"},
    {Pattern::kReversed, "reversed"},
    {Pattern::kOrganPipe, "organ-pipe"},
    {Pattern::kZeroOne, "zero-one"},
};

std::vector<Key> make_keys(Pattern pattern, PNode count, unsigned seed) {
  std::vector<Key> keys(static_cast<std::size_t>(count));
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto k = static_cast<Key>(i);
    switch (pattern) {
      case Pattern::kUniform:
        keys[i] = static_cast<Key>(rng() >> 16);
        break;
      case Pattern::kFewDistinct:
        keys[i] = static_cast<Key>(rng() % 3);
        break;
      case Pattern::kSorted:
        keys[i] = k;
        break;
      case Pattern::kReversed:
        keys[i] = count - k;
        break;
      case Pattern::kOrganPipe:
        keys[i] = std::min(k, count - 1 - k);
        break;
      case Pattern::kZeroOne:
        keys[i] = static_cast<Key>(rng() & 1u);
        break;
    }
  }
  return keys;
}

void expect_same_run(const Machine& tiled, const Machine& reference,
                     const std::string& label) {
  EXPECT_TRUE(std::equal(tiled.keys().begin(), tiled.keys().end(),
                         reference.keys().begin(), reference.keys().end()))
      << label;
  const CostModel& a = tiled.cost();
  const CostModel& b = reference.cost();
  EXPECT_EQ(a.exec_steps, b.exec_steps) << label;
  EXPECT_EQ(a.comparisons, b.comparisons) << label;
  EXPECT_EQ(a.exchanges, b.exchanges) << label;
  EXPECT_EQ(a.formula_time, b.formula_time) << label;
  EXPECT_EQ(a.s2_phases, b.s2_phases) << label;
  EXPECT_EQ(a.routing_phases, b.routing_phases) << label;
}

struct Topology {
  const char* name;
  LabeledFactor (*factor)();
  int dims;
  /// Input patterns SnakeOETS2 runs on (a prefix of kPatterns): its
  /// N^2-phase reference path is slow on the largest topology.
  std::size_t snake_patterns;
};

const Topology kTopologies[] = {
    {"path16^4", [] { return labeled_path(16); }, 4, 1},
    {"cycle5^3", [] { return labeled_cycle(5); }, 3, 6},
    {"petersen^3", [] { return labeled_petersen(); }, 3, 6},
    {"tree7^3", [] { return labeled_binary_tree(3); }, 3, 6},  // dilation 2
    {"star5^3", [] { return labeled_star(5); }, 3, 6},         // dilation 2
    {"k2^5", [] { return labeled_k2(); }, 5, 6},
    {"complete7^3", [] { return labeled_complete(7); }, 3, 6},
};

class TiledS2DifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] const Topology& topology() const {
    return kTopologies[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(TiledS2DifferentialTest, ProductSortMatchesPerPhaseReference) {
  const Topology& topo = topology();
  const ProductGraph pg(topo.factor(), topo.dims);
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  ParallelExecutor one(1);
  ParallelExecutor four(4);
  const std::string name = topo.name;

  for (const S2Sorter* s2 : {static_cast<const S2Sorter*>(&shearsort),
                             static_cast<const S2Sorter*>(&snake_oet)}) {
    const std::size_t patterns =
        s2 == &snake_oet ? topo.snake_patterns : std::size(kPatterns);
    for (std::size_t p = 0; p < patterns; ++p) {
      const PatternSpec& pattern = kPatterns[p];
      const std::vector<Key> keys =
          make_keys(pattern.pattern, pg.num_nodes(), 17);
      SortOptions options;
      options.s2 = s2;

      NoOpObserver observer;
      Machine reference(pg, keys);
      reference.set_observer(&observer);
      (void)sort_product_network(reference, options);
      ASSERT_TRUE(reference.snake_sorted(full_view(pg)));
      // The reference really ran phase by phase: the observer saw every
      // OET phase, not one callback per S2 sort.
      EXPECT_GT(observer.phases(), 2 * (reference.cost().s2_phases +
                                        reference.cost().routing_phases));

      for (ParallelExecutor* executor :
           {static_cast<ParallelExecutor*>(nullptr), &one, &four}) {
        Machine tiled(pg, keys, executor);
        tiled.set_check_disjoint(false);  // plain in every build type
        (void)sort_product_network(tiled, options);
        const std::string threads =
            executor ? std::to_string(executor->num_threads()) + " threads"
                     : "serial";
        expect_same_run(tiled, reference,
                        name + " / " + s2->name() + " / " +
                            pattern.name + " / " + threads);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, TiledS2DifferentialTest,
    ::testing::Range(0, static_cast<int>(std::size(kTopologies))),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = kTopologies[static_cast<std::size_t>(info.param)].name;
      std::replace(name.begin(), name.end(), '^', '_');
      return name;
    });

TEST(TiledS2Test, MixedViewShapesAndDirectionsInOneCall) {
  // One sort_views call over views with different free ranges ({1,2} and
  // {2,3}, kept disjoint by the fourth digit) and mixed directions.
  const ProductGraph pg(labeled_cycle(5), 4);
  std::vector<ViewSpec> views;
  std::vector<bool> descending;
  const auto low = all_views(pg, 1, 2);
  const auto mid = all_views(pg, 2, 3);
  for (std::size_t i = 0; i < std::max(low.size(), mid.size()); ++i) {
    if (i < mid.size() && pg.digit(mid[i].base, 4) == 1) {
      views.push_back(mid[i]);
      descending.push_back(i % 3 == 0);
    }
    if (i < low.size() && pg.digit(low[i].base, 4) != 1) {
      views.push_back(low[i]);
      descending.push_back(i % 2 == 0);
    }
  }
  const ShearsortS2 shearsort;
  const SnakeOETS2 snake_oet;
  ParallelExecutor four(4);
  for (const S2Sorter* s2 : {static_cast<const S2Sorter*>(&shearsort),
                             static_cast<const S2Sorter*>(&snake_oet)}) {
    for (const PatternSpec& pattern : kPatterns) {
      const std::vector<Key> keys =
          make_keys(pattern.pattern, pg.num_nodes(), 23);
      NoOpObserver observer;
      Machine reference(pg, keys);
      reference.set_observer(&observer);
      s2->sort_views(reference, views, descending);
      for (std::size_t i = 0; i < views.size(); ++i)
        ASSERT_TRUE(reference.snake_sorted(views[i], descending[i]));
      for (ParallelExecutor* executor :
           {static_cast<ParallelExecutor*>(nullptr), &four}) {
        Machine tiled(pg, keys, executor);
        tiled.set_check_disjoint(false);
        s2->sort_views(tiled, views, descending);
        expect_same_run(tiled, reference,
                        s2->name() + " / " + pattern.name);
      }
    }
  }
}

TEST(TiledS2Test, RejectsMalformedSchedules) {
  const ProductGraph pg(labeled_path(3), 2);
  Machine m(pg, std::vector<Key>(9, 0));
  const ViewSpec views[] = {full_view(pg)};
  const std::vector<bool> ascending{false};

  OETSchedule schedule;
  OETLines line;
  line.length = 2;
  line.offsets = {0, 9};  // 9 is outside the 3x3 tile
  line.flipped = {0};
  schedule.families.push_back(line);
  schedule.passes = {0};
  EXPECT_THROW(m.run_oet_schedule(schedule, views, ascending),
               std::invalid_argument);

  schedule.families[0].offsets = {0, 1};
  schedule.passes = {1};  // no such family
  EXPECT_THROW(m.run_oet_schedule(schedule, views, ascending),
               std::invalid_argument);

  // Two lines of one family share tile offset 1.
  schedule.families[0].offsets = {0, 1, 1, 2};
  schedule.families[0].flipped = {0, 0};
  schedule.passes = {0};
  EXPECT_THROW(m.run_oet_schedule(schedule, views, ascending),
               std::invalid_argument);
  // ... and one line repeats an offset.
  schedule.families[0].offsets = {4, 4};
  schedule.families[0].flipped = {0};
  EXPECT_THROW(m.run_oet_schedule(schedule, views, ascending),
               std::invalid_argument);
}

TEST(TiledS2Test, HandBuiltFamiliesMatchPerPhaseReference) {
  // Families of every shape the tiled path distinguishes, on 6 x 6
  // tiles: the columns (run in place), and the columns with every other
  // line flipped, four of the six rows and two short lines (gathered
  // into lanes).  A schedule of short lines alone is thinner than a
  // vector, so several views' lines run as the lanes of one matrix.
  const ProductGraph pg(labeled_path(6), 3);
  const NodeId n = pg.radix();
  OETSchedule schedule;
  OETLines columns;
  OETLines flipped_columns;
  OETLines some_rows;
  OETLines short_lines;
  columns.length = flipped_columns.length = some_rows.length = n;
  for (NodeId c = 0; c < n; ++c) {
    for (NodeId j = 0; j < n; ++j) {
      columns.offsets.push_back(c + j * n);
      flipped_columns.offsets.push_back(c + j * n);
    }
    columns.flipped.push_back(0);
    flipped_columns.flipped.push_back(c % 2);
  }
  for (NodeId r = 1; r < 5; ++r) {
    for (NodeId j = 0; j < n; ++j) some_rows.offsets.push_back(j + r * n);
    some_rows.flipped.push_back(r % 2);
  }
  short_lines.length = 3;
  short_lines.offsets = {0, 7, 14, 35, 28, 21};  // two diagonals
  short_lines.flipped = {0, 1};
  OETLines anti_diagonal;
  anti_diagonal.length = n;
  for (NodeId j = 0; j < n; ++j)
    anti_diagonal.offsets.push_back((n - 1) * (j + 1));
  anti_diagonal.flipped = {1};
  schedule.families = {columns, flipped_columns, some_rows, short_lines};
  schedule.passes = {0, 2, 1, 3, 2, 0, 3, 1};
  OETSchedule thin;
  thin.families = {short_lines, anti_diagonal};
  thin.passes = {0, 1, 1, 0};

  const std::vector<ViewSpec> views = all_views(pg, 1, 2);
  std::vector<bool> descending;
  for (std::size_t i = 0; i < views.size(); ++i)
    descending.push_back(i % 2 == 1);
  for (const OETSchedule* s : {&schedule, &thin}) {
    for (const PatternSpec& pattern : kPatterns) {
      const std::vector<Key> keys =
          make_keys(pattern.pattern, pg.num_nodes(), 29);
      NoOpObserver observer;
      Machine reference(pg, keys);
      reference.set_observer(&observer);
      reference.run_oet_schedule(*s, views, descending);
      Machine tiled(pg, keys);
      tiled.set_check_disjoint(false);
      tiled.run_oet_schedule(*s, views, descending);
      expect_same_run(tiled, reference, pattern.name);
    }
  }
}

TEST(TiledS2Test, BenchmarkFamiliesOnTheBenchmarkGrid) {
  // The grid workload's sort: path(16)^4 with ShearsortS2, on every
  // input family the benchmark draws, the frozen McIlroy adversary
  // included.
  const ProductGraph pg(labeled_path(16), 4);
  const ShearsortS2 shearsort;
  SortOptions options;
  options.s2 = &shearsort;
  ParallelExecutor four(4);
  for (int f = 0; f < perfbench::kFamilyCount; ++f) {
    const perfbench::Family family = perfbench::family_at(f);
    const std::vector<Key> keys = perfbench::make_keys(
        family, static_cast<std::size_t>(pg.num_nodes()), 731);
    NoOpObserver observer;
    Machine reference(pg, keys);
    reference.set_observer(&observer);
    (void)sort_product_network(reference, options);
    std::vector<Key> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(reference.read_snake(full_view(pg)), sorted)
        << perfbench::family_name(family);
    for (ParallelExecutor* executor :
         {static_cast<ParallelExecutor*>(nullptr), &four}) {
      Machine tiled(pg, keys, executor);
      tiled.set_check_disjoint(false);
      (void)sort_product_network(tiled, options);
      expect_same_run(tiled, reference,
                      std::string(perfbench::family_name(family)) +
                          (executor ? " / 4 threads" : " / serial"));
    }
  }
}

TEST(TiledS2Test, EveryZeroOneInputOfOneShearsortTile) {
  // All 2^16 0-1 inputs of one 4 x 4 tile, sorted ascending and
  // descending: keys and exchanges must match the per-phase reference.
  const ProductGraph pg(labeled_path(4), 2);
  const ViewSpec views[] = {full_view(pg)};
  const ShearsortS2 shearsort;
  std::vector<Key> keys(16);
  for (const bool desc : {false, true}) {
    const std::vector<bool> descending{desc};
    for (std::uint32_t input = 0; input < (1u << 16); ++input) {
      for (std::size_t i = 0; i < keys.size(); ++i)
        keys[i] = static_cast<Key>((input >> i) & 1u);
      NoOpObserver observer;
      Machine reference(pg, keys);
      reference.set_observer(&observer);
      shearsort.sort_views(reference, views, descending);
      Machine tiled(pg, keys);
      tiled.set_check_disjoint(false);
      shearsort.sort_views(tiled, views, descending);
      ASSERT_TRUE(std::equal(tiled.keys().begin(), tiled.keys().end(),
                             reference.keys().begin(),
                             reference.keys().end()))
          << "input " << input << (desc ? " descending" : " ascending");
      ASSERT_EQ(tiled.cost().exchanges, reference.cost().exchanges)
          << "input " << input << (desc ? " descending" : " ascending");
      ASSERT_TRUE(reference.snake_sorted(views[0], desc)) << input;
    }
  }
}

}  // namespace
}  // namespace prodsort
