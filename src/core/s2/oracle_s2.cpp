#include "core/s2/oracle_s2.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "product/snake_order.hpp"

namespace prodsort {

void OracleS2::sort_views(Machine& machine, std::span<const ViewSpec> views,
                          const std::vector<bool>& descending) const {
  const ProductGraph& pg = machine.graph();
  auto body = [&](std::int64_t begin, std::int64_t end) {
    std::vector<Key> buffer;
    for (std::int64_t i = begin; i < end; ++i) {
      const ViewSpec& v = views[static_cast<std::size_t>(i)];
      const PNode size = view_size(pg, v);
      buffer.resize(static_cast<std::size_t>(size));
      SnakeWalker gather(pg, v);
      for (Key& k : buffer) {
        k = machine.key(gather.node());
        gather.next();
      }
      if (descending[static_cast<std::size_t>(i)])
        std::sort(buffer.begin(), buffer.end(), std::greater<Key>{});
      else
        std::sort(buffer.begin(), buffer.end());
      // AUDITOR-EXEMPT(oracle): modeled sorter, not a simulated data
      // path — the analytic exec-steps proxy below is the charge, so
      // this scatter legitimately bypasses compare_exchange_step.
      SnakeWalker scatter(pg, v);
      for (const Key k : buffer) {
        machine.mutable_keys()[static_cast<std::size_t>(scatter.node())] = k;
        scatter.next();
      }
    }
  };
  if (machine.executor() != nullptr)
    machine.executor()->parallel_for(static_cast<std::int64_t>(views.size()),
                                     body);
  else
    body(0, static_cast<std::int64_t>(views.size()));

  // Executed-steps proxy: the analytic cost of the sorter being modeled.
  machine.cost().exec_steps +=
      std::llround(phase_cost(machine.graph().factor()));
}

}  // namespace prodsort
