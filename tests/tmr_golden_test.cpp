// Golden test of Machine's triple-modular-redundant vote.
//
// Each case sorts the same keys under TMR with silently-faulty
// comparators (stuck, inverted, arbitrary), alone and together with CE
// drops, key corruption and stragglers, and pins what the vote
// committed: a hash of the final keys, the CostModel counters TMR
// touches, and the FaultModel's injection tallies.  The rows were
// recorded with the replicate-every-pair vote, so they hold any faster
// vote to the same outcome pair by pair.  Faulty nodes sit both at the
// low and at the high end of pairs, adjacent faulty nodes share pairs,
// and some faults are windowed, so a vote that misses either endpoint's
// fault, or the fault clock, changes a row.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <random>
#include <string>

#include "core/hashing.hpp"
#include "core/product_sort.hpp"
#include "core/s2/snake_oet_s2.hpp"

namespace prodsort {
namespace {

struct TmrCase {
  const char* name;
  ComparatorFaultKind kind;
  double ce_drop_rate;
  double key_corrupt_rate;
  int stragglers;
};

constexpr auto kStuck = ComparatorFaultKind::kStuckPassThrough;
constexpr auto kInverted = ComparatorFaultKind::kInverted;
constexpr auto kArbitrary = ComparatorFaultKind::kArbitrary;

constexpr TmrCase kCases[] = {
    {"stuck", kStuck, 0, 0, 0},
    {"stuck+drops", kStuck, 0.02, 0, 0},
    {"stuck+corruption", kStuck, 0, 0.01, 0},
    {"stuck+stragglers", kStuck, 0, 0, 3},
    {"stuck+all", kStuck, 0.02, 0.01, 3},
    {"inverted", kInverted, 0, 0, 0},
    {"inverted+drops", kInverted, 0.02, 0, 0},
    {"inverted+corruption", kInverted, 0, 0.01, 0},
    {"inverted+stragglers", kInverted, 0, 0, 3},
    {"inverted+all", kInverted, 0.02, 0.01, 3},
    {"arbitrary", kArbitrary, 0, 0, 0},
    {"arbitrary+drops", kArbitrary, 0.02, 0, 0},
    {"arbitrary+corruption", kArbitrary, 0, 0.01, 0},
    {"arbitrary+stragglers", kArbitrary, 0, 0, 3},
    {"arbitrary+all", kArbitrary, 0.02, 0.01, 3},
};

/// What one TMR sort committed.
struct TmrOutcome {
  std::uint64_t keys_hash = 0;  ///< order-sensitive hash of the final keys
  std::int64_t comparisons = 0;
  std::int64_t exchanges = 0;
  std::int64_t exec_steps = 0;
  std::int64_t tmr_phases = 0;
  std::int64_t tmr_masked = 0;
  std::int64_t degraded_phases = 0;
  std::int64_t ce_drops = 0;
  std::int64_t key_corruptions = 0;
  std::int64_t straggler_phases = 0;
  std::int64_t comparator_faults = 0;

  friend bool operator==(const TmrOutcome&, const TmrOutcome&) = default;
};

// Prints a row in the table's own syntax, so a failure shows the row to
// compare against.
void PrintTo(const TmrOutcome& o, std::ostream* os) {
  char line[320];
  std::snprintf(line, sizeof line,
                "{0x%016" PRIx64 "ull, %" PRId64 ", %" PRId64 ", %" PRId64
                ", %" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64
                ", %" PRId64 ", %" PRId64 ", %" PRId64 "}",
                o.keys_hash, o.comparisons, o.exchanges, o.exec_steps,
                o.tmr_phases, o.tmr_masked, o.degraded_phases, o.ce_drops,
                o.key_corruptions, o.straggler_phases, o.comparator_faults);
  *os << line;
}

// One row per kCases entry, recorded with the replicate-every-pair vote:
// {keys_hash, comparisons, exchanges, exec_steps, tmr_phases, tmr_masked,
//  degraded_phases, ce_drops, key_corruptions, straggler_phases,
//  comparator_faults}.
constexpr TmrOutcome kGolden[] = {
    {0x4f6207cca46767cfull, 5904, 587, 132, 66, 88, 0, 0, 0, 0, 326},
    {0x4f6207cca46767cfull, 5904, 587, 132, 66, 116, 0, 112, 0, 0, 326},
    {0x2e81cf91255aa564ull, 5904, 608, 132, 66, 149, 0, 0, 58, 0, 326},
    {0x4f6207cca46767cfull, 5904, 587, 264, 66, 88, 66, 0, 0, 66, 326},
    {0x2e81cf91255aa564ull, 5904, 608, 264, 66, 175, 66, 112, 56, 66, 326},
    {0xb70ae3fb6aa65520ull, 5904, 586, 132, 66, 278, 0, 0, 0, 0, 326},
    {0xb70ae3fb6aa65520ull, 5904, 586, 132, 66, 303, 0, 112, 0, 0, 326},
    {0xd801f1cef0a692eeull, 5904, 614, 132, 66, 329, 0, 0, 58, 0, 326},
    {0xb70ae3fb6aa65520ull, 5904, 586, 264, 66, 278, 66, 0, 0, 66, 326},
    {0xd801f1cef0a692eeull, 5904, 610, 264, 66, 353, 66, 112, 56, 66, 326},
    {0xd876a32235bc0485ull, 5904, 762, 132, 66, 302, 0, 0, 0, 0, 326},
    {0x400b17fd30968d57ull, 5904, 780, 132, 66, 339, 0, 112, 0, 0, 326},
    {0x8b5dd65ff5fa6091ull, 5904, 801, 132, 66, 353, 0, 0, 58, 0, 326},
    {0xd876a32235bc0485ull, 5904, 762, 264, 66, 302, 66, 0, 0, 66, 326},
    {0x788cfb6b37f5853bull, 5904, 801, 264, 66, 392, 66, 112, 56, 66, 326},
};
static_assert(std::size(kGolden) == std::size(kCases));

FaultConfig fault_config(const TmrCase& c) {
  FaultConfig config;
  config.seed = 29;
  config.ce_drop_rate = c.ce_drop_rate;
  config.key_corrupt_rate = c.key_corrupt_rate;
  config.stragglers = c.stragglers;
  config.straggler_factor = c.stragglers > 0 ? 3 : 1;
  // On path(4)^3: 18 and 19 are dimension-1 neighbours (one pair, both
  // endpoints faulty); the others are spread over the cube, two of them
  // only for a window of the fault clock.
  for (const PNode node : {PNode{5}, PNode{18}, PNode{19}, PNode{42}})
    config.comparator_schedule.push_back({.node = node, .kind = c.kind});
  config.comparator_schedule.push_back(
      {.node = 27, .from_phase = 10, .until_phase = 60, .kind = c.kind});
  config.comparator_schedule.push_back(
      {.node = 60, .from_phase = 40, .kind = c.kind});
  return config;
}

TmrOutcome run_case(const TmrCase& c, ParallelExecutor* executor) {
  const ProductGraph pg(labeled_path(4), 3);
  std::mt19937_64 rng(7);
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  for (Key& k : keys) k = static_cast<Key>(rng() >> 24);

  FaultModel faults(fault_config(c));
  if (c.stragglers > 0) faults.select_stragglers(pg.num_nodes());
  Machine machine(pg, std::move(keys), executor);
  machine.set_tmr(true);
  machine.set_fault_model(&faults);
  const SnakeOETS2 s2;
  SortOptions options;
  options.s2 = &s2;
  (void)sort_product_network(machine, options);

  TmrOutcome o;
  for (const Key k : machine.keys())
    o.keys_hash = mix64(o.keys_hash, static_cast<std::uint64_t>(k));
  const CostModel& cost = machine.cost();
  o.comparisons = cost.comparisons;
  o.exchanges = cost.exchanges;
  o.exec_steps = cost.exec_steps;
  o.tmr_phases = cost.tmr_phases;
  o.tmr_masked = cost.tmr_masked;
  o.degraded_phases = cost.degraded_phases;
  const FaultCounters& tally = faults.counters();
  o.ce_drops = tally.ce_drops;
  o.key_corruptions = tally.key_corruptions;
  o.straggler_phases = tally.straggler_phases;
  o.comparator_faults = tally.comparator_faults;
  return o;
}

TEST(TmrGoldenTest, VoteMatchesRecordedOutcomes) {
  ParallelExecutor one(1);
  ParallelExecutor four(4);
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    for (ParallelExecutor* executor : {&one, &four}) {
      EXPECT_EQ(run_case(kCases[i], executor), kGolden[i])
          << kCases[i].name << ", " << executor->num_threads() << " threads";
    }
  }
}

TEST(TmrGoldenTest, CasesExerciseTheVote) {
  // Guards the table against going vacuous: every case fires faulty
  // comparators and the vote masks some of them.
  for (const TmrOutcome& o : kGolden) {
    EXPECT_GT(o.comparator_faults, 0);
    EXPECT_GT(o.tmr_masked, 0);
  }
}

}  // namespace
}  // namespace prodsort
