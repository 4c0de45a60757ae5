#include "product/snake_order.hpp"

#include <stdexcept>

namespace prodsort {

namespace {

constexpr int kMaxDims = 62;  // ProductGraph caps r at 62 (node count fits 62 bits)

// ViewSpec is a plain aggregate, so hand-built instances can carry any
// range; reject them before they index the weight table or overrun the
// digit buffers.
void check_view(const ProductGraph& pg, const ViewSpec& v) {
  if (v.lo < 1 || v.hi > pg.dims() || v.lo > v.hi)
    throw std::out_of_range("view free range outside the product's dimensions");
}

}  // namespace

PNode view_snake_rank(const ProductGraph& pg, const ViewSpec& v, PNode node) {
  check_view(pg, v);
  NodeId digits[kMaxDims];
  const int k = v.dims();
  for (int j = 0; j < k; ++j) digits[j] = pg.digit(node, v.lo + j);
  return gray_rank(pg.radix(), std::span<const NodeId>(digits, static_cast<std::size_t>(k)));
}

PNode view_node_at_snake_rank(const ProductGraph& pg, const ViewSpec& v,
                              PNode rank) {
  check_view(pg, v);
  NodeId digits[kMaxDims];
  const int k = v.dims();
  gray_tuple(pg.radix(), rank, std::span<NodeId>(digits, static_cast<std::size_t>(k)));
  PNode local = 0;
  for (int j = k; j-- > 0;)
    local = local * pg.radix() + digits[j];
  return view_node(pg, v, local);
}

SnakeWalker::SnakeWalker(const ProductGraph& pg, const ViewSpec& v, PNode rank)
    : radix_(pg.radix()), dims_(v.dims()), rank_(rank) {
  check_view(pg, v);
  gray_tuple(radix_, rank,
             std::span<NodeId>(digits_.data(), static_cast<std::size_t>(dims_)));
  PNode local = 0;
  bool odd = false;  // parity of the digits above j
  for (int j = dims_; j-- > 0;) {
    const NodeId d = digits_[static_cast<std::size_t>(j)];
    local = local * radix_ + d;
    weights_[static_cast<std::size_t>(j)] = pg.weight(v.lo + j);
    // Digit j sweeps upward inside an unreversed copy of Q_j, i.e. when
    // the digits above it have even weight (gray_tuple's `reversed`).
    if (odd) down_ |= std::uint64_t{1} << j;
    odd ^= (d & 1) != 0;
  }
  node_ = view_node(pg, v, local);
}

PNode snake_rank(const ProductGraph& pg, PNode node) {
  return view_snake_rank(pg, full_view(pg), node);
}

PNode node_at_snake_rank(const ProductGraph& pg, PNode rank) {
  return view_node_at_snake_rank(pg, full_view(pg), rank);
}

bool weight_parity(const ProductGraph& pg, PNode node, int dim_lo, int dim_hi) {
  PNode weight = 0;
  for (int i = dim_lo; i <= dim_hi; ++i) weight += pg.digit(node, i);
  return (weight & 1) != 0;
}

}  // namespace prodsort
