#include "product/degraded_view.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>

namespace prodsort {

namespace {

// BFS shortest-path length between two view-local indices through live
// view nodes only; -1 when unreachable.  The product graph is never
// materialized, so neighbors are enumerated on demand and filtered back
// into the view.
int live_distance(const ProductGraph& pg, const ViewSpec& view,
                  const std::vector<PNode>& rank, PNode from_local,
                  PNode to_local) {
  if (from_local == to_local) return 0;
  std::vector<int> dist(rank.size(), -1);
  dist[static_cast<std::size_t>(from_local)] = 0;
  std::queue<PNode> frontier;
  frontier.push(from_local);
  while (!frontier.empty()) {
    const PNode local = frontier.front();
    frontier.pop();
    const int d = dist[static_cast<std::size_t>(local)];
    for (const PNode nb : pg.neighbors(view_node(pg, view, local))) {
      if (!view_contains(pg, view, nb)) continue;
      const PNode nb_local = view_local(pg, view, nb);
      if (rank[static_cast<std::size_t>(nb_local)] < 0) continue;  // dead
      if (dist[static_cast<std::size_t>(nb_local)] >= 0) continue;
      dist[static_cast<std::size_t>(nb_local)] = d + 1;
      if (nb_local == to_local) return d + 1;
      frontier.push(nb_local);
    }
  }
  return -1;
}

}  // namespace

DegradedView::DegradedView(const ProductGraph& pg, const ViewSpec& view,
                           std::span<const PNode> dead_nodes)
    : pg_(&pg), view_(view), full_size_(view_size(pg, view)) {
  std::vector<char> dead(static_cast<std::size_t>(full_size_), 0);
  for (const PNode node : dead_nodes) {
    if (node < 0 || !view_contains(pg, view, node)) continue;
    dead[static_cast<std::size_t>(view_local(pg, view, node))] = 1;
  }

  // Live ranks follow the original snake with holes skipped.
  rank_.assign(static_cast<std::size_t>(full_size_), -1);
  live_.reserve(static_cast<std::size_t>(full_size_));
  SnakeWalker walk(pg, view);
  for (PNode snake = 0; snake < full_size_; ++snake, walk.next()) {
    const PNode node = walk.node();
    const PNode local = view_local(pg, view, node);
    if (dead[static_cast<std::size_t>(local)]) continue;
    rank_[static_cast<std::size_t>(local)] = live_size();
    live_.push_back(node);
  }
  if (live_.empty())
    throw std::invalid_argument("DegradedView: every node of the view is dead");

  hop_.assign(live_.size() > 0 ? live_.size() - 1 : 0, 1);
  for (PNode r = 0; r + 1 < live_size(); ++r) {
    const int d = live_distance(pg, view, rank_,
                                view_local(pg, view, live_[static_cast<std::size_t>(r)]),
                                view_local(pg, view, live_[static_cast<std::size_t>(r) + 1]));
    if (d < 0)
      throw std::runtime_error(
          "DegradedView: dead nodes disconnect live snake ranks " +
          std::to_string(r) + " and " + std::to_string(r + 1) +
          " (no routed schedule exists)");
    hop_[static_cast<std::size_t>(r)] = d;
    max_hop_ = std::max(max_hop_, d);
  }
}

PNode DegradedView::rank_of(PNode node) const {
  if (node < 0 || !view_contains(*pg_, view_, node)) return -1;
  return rank_[static_cast<std::size_t>(view_local(*pg_, view_, node))];
}

}  // namespace prodsort
