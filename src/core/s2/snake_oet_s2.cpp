#include "core/s2/snake_oet_s2.hpp"

#include "product/gray_code.hpp"

namespace prodsort {

std::optional<OETSchedule> SnakeOETS2::oet_schedule(NodeId n) const {
  // Consecutive snake ranks differ in one digit by +-1 (the Gray-code
  // property), so partners are at most `dilation` hops apart.
  OETSchedule schedule;
  OETLines snake;
  snake.length = n * n;
  NodeId digits[2];
  for (PNode rank = 0; rank < PNode{n} * n; ++rank) {
    gray_tuple(n, rank, digits);
    snake.offsets.push_back(digits[0] + digits[1] * n);
  }
  snake.flipped.push_back(0);
  schedule.families.push_back(std::move(snake));
  schedule.passes.push_back(0);
  return schedule;
}

void SnakeOETS2::sort_views(Machine& machine, std::span<const ViewSpec> views,
                            const std::vector<bool>& descending) const {
  machine.run_oet_schedule(*oet_schedule(machine.graph().radix()), views,
                           descending);
}

}  // namespace prodsort
