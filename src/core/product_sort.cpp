#include "core/product_sort.hpp"

#include <algorithm>
#include <stdexcept>

#include "product/snake_order.hpp"

namespace prodsort {

namespace {

// Base of a PG_2 block of the (lo..hi) view `parent`: group digits
// (dimensions lo+2..hi) are the Gray tuple of rank z.
PNode block_base(const ProductGraph& pg, const ViewSpec& parent, PNode z) {
  const int group_dims = parent.dims() - 2;
  NodeId digits[62];
  gray_tuple(pg.radix(), z,
             std::span<NodeId>(digits, static_cast<std::size_t>(group_dims)));
  PNode base = parent.base;
  for (int j = 0; j < group_dims; ++j)
    base += static_cast<PNode>(digits[j]) * pg.weight(parent.lo + 2 + j);
  return base;
}

}  // namespace

BlockTransposition transposition_blocks(const ProductGraph& pg, int lo, int hi,
                                        int parity) {
  const PNode nblocks = pow_int(pg.radix(), hi - lo - 1);
  const std::vector<ViewSpec> parents = all_views(pg, lo, hi);
  const PNode block_pairs = std::max<PNode>(nblocks - parity, 0) / 2;
  std::vector<PNode> low;
  std::vector<PNode> high;
  low.reserve(parents.size() * static_cast<std::size_t>(block_pairs));
  high.reserve(low.capacity());
  for (const ViewSpec& parent : parents) {
    for (PNode z = parity; z + 1 < nblocks; z += 2) {
      low.push_back(block_base(pg, parent, z));
      high.push_back(block_base(pg, parent, z + 1));
    }
  }
  return BlockTransposition(pg, lo, std::move(low), std::move(high));
}

std::vector<CEPair> transposition_pairs(const ProductGraph& pg, int lo, int hi,
                                        int parity) {
  return transposition_blocks(pg, lo, hi, parity).expand();
}

std::vector<bool> block_directions(const ProductGraph& pg,
                                   std::span<const ViewSpec> blocks, int lo,
                                   int hi) {
  std::vector<bool> descending(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i)
    descending[i] = weight_parity(pg, blocks[i].base, lo + 2, hi);
  return descending;
}

void merge_level(Machine& machine, int lo, int hi, const S2Sorter& s2) {
  SortPlan(machine.graph(), s2, lo, hi).run(machine);
}

SortReport sort_product_network(Machine& machine, const SortOptions& options) {
  return sort_product_network(machine, SortPlan(machine.graph(), options.s2),
                              options);
}

SortReport sort_product_network(Machine& machine, const SortPlan& plan,
                                const SortOptions& options) {
  plan.run(machine, options.trace, options.validate_levels);

  SortReport report;
  report.cost = machine.cost();
  report.predicted = theorem1(machine.graph().factor(), machine.graph().dims());
  return report;
}

}  // namespace prodsort
