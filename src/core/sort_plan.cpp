#include "core/sort_plan.hpp"

#include <stdexcept>
#include <string>

#include "core/product_sort.hpp"  // block_directions, transposition_blocks
#include "core/s2/oracle_s2.hpp"

namespace prodsort {

namespace {

const S2Sorter& or_default(const S2Sorter* s2) {
  static const OracleS2 default_s2;
  return s2 != nullptr ? *s2 : default_s2;
}

}  // namespace

SortPlan::SortPlan(const ProductGraph& pg, const S2Sorter& s2)
    : pg_(&pg), s2_(&s2), s2_weight_(s2.phase_cost(pg.factor())) {
  if (std::optional<OETSchedule> schedule = s2.oet_schedule(pg.radix()))
    schedule_.emplace(std::move(*schedule), pg.radix());
}

SortPlan::SortPlan(const ProductGraph& pg, const S2Sorter* s2)
    : SortPlan(pg, or_default(s2)) {
  if (pg.dims() < 2)
    throw std::invalid_argument("sorting needs r >= 2 dimensions");
  // Initial independent sorts of all N^2-key blocks (Section 3.3).
  std::vector<ViewSpec> views = all_views(pg, 1, 2);
  std::vector<bool> ascending(views.size(), false);
  add_s2(1, 2, std::move(views), std::move(ascending));
  for (int k = 3; k <= pg.dims(); ++k) add_level(1, k);
}

SortPlan::SortPlan(const ProductGraph& pg, const S2Sorter& s2, int lo, int hi)
    : SortPlan(pg, s2) {
  add_level(lo, hi);
}

void SortPlan::add_s2(int lo, int hi, std::vector<ViewSpec> views,
                      std::vector<bool> descending) {
  phases_.push_back(
      {lo, hi, TileViews(*pg_, std::move(views), std::move(descending))});
}

// Step 4's block sorts: every PG_2 block at dimensions {lo, lo+1} of
// every (lo..hi) view, direction by group-label parity.
void SortPlan::add_block_sorts(int lo, int hi) {
  std::vector<ViewSpec> blocks = all_views(*pg_, lo, lo + 1);
  std::vector<bool> descending = block_directions(*pg_, blocks, lo, hi);
  add_s2(lo, hi, std::move(blocks), std::move(descending));
}

void SortPlan::add_transposition(int lo, int hi, int parity) {
  phases_.push_back({lo, hi, transposition_blocks(*pg_, lo, hi, parity)});
}

// Section 4's merge on every (lo..hi) view at once.
void SortPlan::add_level(int lo, int hi) {
  if (lo < 1 || hi > pg_->dims() || hi - lo < 1)
    throw std::invalid_argument("merge_level needs >= 2 free dimensions");

  if (hi - lo == 1) {  // two dimensions: the assumed PG_2 sorter
    std::vector<ViewSpec> views = all_views(*pg_, lo, hi);
    std::vector<bool> ascending(views.size(), false);
    add_s2(lo, hi, std::move(views), std::move(ascending));
    return;
  }

  // Step 1 and Step 3 require no computation or routing (Section 4).
  add_level(lo + 1, hi);      // Step 2
  add_block_sorts(lo, hi);    // Step 4: first block sorts
  add_transposition(lo, hi, 0);
  add_transposition(lo, hi, 1);
  add_block_sorts(lo, hi);    // Step 4: final block sorts
}

void SortPlan::run(Machine& machine, std::vector<PhaseRecord>* trace,
                   bool validate_levels) const {
  if (&machine.graph() != pg_)
    throw std::invalid_argument(
        "sort plan: the machine is not built on the plan's graph");
  const LabeledFactor& factor = pg_->factor();
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const Phase& phase = phases_[i];
    if (const auto* views = std::get_if<TileViews>(&phase.body)) {
      machine.cost().charge_s2_phase(s2_weight_);
      if (trace != nullptr)
        trace->push_back({PhaseRecord::Kind::kS2Sort, phase.lo, phase.hi,
                          s2_weight_, views->views().size()});
      if (schedule_)
        machine.run_oet_schedule(*schedule_, *views);
      else
        s2_->sort_views(machine, views->views(), views->descending());
    } else {
      const auto& blocks = std::get<BlockTransposition>(phase.body);
      machine.cost().charge_routing_phase(factor.routing_cost);
      if (trace != nullptr)
        trace->push_back({PhaseRecord::Kind::kTransposition, phase.lo,
                          phase.hi, factor.routing_cost, blocks.pairs()});
      // Partners differ by one in a single digit: adjacent when the
      // factor is Hamiltonian-labeled, otherwise at most `dilation`
      // hops apart.
      machine.compare_exchange_blocks(blocks, factor.dilation);
    }
    // Merge level k is every phase with hi == k; it ends where the next
    // phase's hi differs.
    const bool level_end =
        i + 1 == phases_.size() || phases_[i + 1].hi != phase.hi;
    if (validate_levels && level_end && phase.hi >= 3) {
      for (const ViewSpec& v : all_views(*pg_, 1, phase.hi))
        if (!machine.snake_sorted(v))
          throw std::logic_error("merge level " + std::to_string(phase.hi) +
                                 " left a view unsorted");
    }
  }
}

std::size_t SortPlan::bytes() const noexcept {
  std::size_t total = sizeof(*this) + phases_.capacity() * sizeof(Phase);
  for (const Phase& phase : phases_)
    total += std::visit([](const auto& body) { return body.heap_bytes(); },
                        phase.body);
  if (schedule_) total += schedule_->heap_bytes();
  return total;
}

}  // namespace prodsort
