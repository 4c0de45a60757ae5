#include "core/s2/shearsort_s2.hpp"

namespace prodsort {

namespace {

int ceil_log2(NodeId n) {
  int bits = 0;
  while ((NodeId{1} << bits) < n) ++bits;
  return bits;
}

}  // namespace

double ShearsortS2::phase_cost(const LabeledFactor& factor) const {
  const double n = factor.size();
  return (ceil_log2(factor.size()) + 1) * 2.0 * n * factor.dilation +
         n * factor.dilation;
}

std::optional<OETSchedule> ShearsortS2::oet_schedule(NodeId n) const {
  OETSchedule schedule;
  // Row f holds tile offsets j + f*N (fixed digit at the high free
  // dimension); column f holds f + j*N.  Snake: even rows ascend, odd
  // rows descend; columns ascend.
  OETLines rows;
  OETLines cols;
  rows.length = cols.length = n;
  for (NodeId fixed = 0; fixed < n; ++fixed) {
    for (NodeId j = 0; j < n; ++j) {
      rows.offsets.push_back(j + fixed * n);
      cols.offsets.push_back(fixed + j * n);
    }
    rows.flipped.push_back(fixed % 2 != 0);
    cols.flipped.push_back(0);
  }
  schedule.families = {std::move(rows), std::move(cols)};

  // ceil(log2 N) + 1 rounds of {rows, columns}, then a final row pass.
  for (int it = 0; it <= ceil_log2(n); ++it)
    schedule.passes.insert(schedule.passes.end(), {0, 1});
  schedule.passes.push_back(0);
  return schedule;
}

void ShearsortS2::sort_views(Machine& machine, std::span<const ViewSpec> views,
                             const std::vector<bool>& descending) const {
  machine.run_oet_schedule(*oet_schedule(machine.graph().radix()), views,
                           descending);
}

}  // namespace prodsort
