#include "network/plan_phases.hpp"

#include <algorithm>
#include <stdexcept>

#include "network/oet_lanes.hpp"

namespace prodsort {

namespace {

// Pairs in a phase of `parity` on a line of `length` positions.
std::int64_t line_pairs(int length, int parity) {
  return (length - parity) / 2;
}

// True when `base` is a node of `pg` whose digits at dimensions lo and
// lo + 1 are zero, so base + k * weight(lo) is a node for every k < N^2.
bool tile_base(const ProductGraph& pg, int lo, PNode base) {
  return lo >= 1 && lo + 1 <= pg.dims() && base >= 0 &&
         base < pg.num_nodes() && pg.digit(base, lo) == 0 &&
         pg.digit(base, lo + 1) == 0;
}

}  // namespace

CompiledOET::CompiledOET(OETSchedule schedule, NodeId n)
    : schedule_(std::move(schedule)), n_(n) {
  const auto tile = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<char> seen(tile);
  for (const OETLines& family : schedule_.families) {
    if (family.length < 0 ||
        family.offsets.size() !=
            family.lines() * static_cast<std::size_t>(family.length))
      throw std::invalid_argument("S2 schedule: ragged line family");
    std::fill(seen.begin(), seen.end(), 0);
    for (const std::int32_t offset : family.offsets) {
      if (offset < 0 || static_cast<std::size_t>(offset) >= tile)
        throw std::invalid_argument("S2 schedule: offset outside the tile");
      if (seen[static_cast<std::size_t>(offset)] != 0)
        throw std::invalid_argument(
            "S2 schedule: lines of a family overlap");
      seen[static_cast<std::size_t>(offset)] = 1;
    }
  }
  for (const int pass : schedule_.passes)
    if (pass < 0 ||
        static_cast<std::size_t>(pass) >= schedule_.families.size())
      throw std::invalid_argument("S2 schedule: pass names no line family");

  const std::size_t width = oet_lane_kernel().width;
  bool thin = !schedule_.families.empty();
  for (const OETLines& family : schedule_.families) {
    Layout layout = family.lines() == static_cast<std::size_t>(n)
                        ? Layout::kInPlace
                        : Layout::kLanes;
    const auto length = static_cast<std::size_t>(family.length);
    for (std::size_t l = 0; l < family.lines() && layout == Layout::kInPlace;
         ++l) {
      if (family.flipped[l] != 0) layout = Layout::kLanes;
      for (std::size_t j = 0; j < length; ++j)
        if (family.offsets[l * length + j] !=
            static_cast<std::int32_t>(l + j * static_cast<std::size_t>(n)))
          layout = Layout::kLanes;
    }
    layouts_.push_back(layout);
    if (layout == Layout::kLanes)
      matrix_size_ = std::max(matrix_size_, family.offsets.size());
    thin = thin && family.lines() < width;
  }
  if (thin) {
    group_ = width;
    for (const OETLines& family : schedule_.families)
      matrix_size_ = std::max(matrix_size_, family.offsets.size() * group_);
  }
  for (const int pass : schedule_.passes) {
    const OETLines& family = schedule_.families[static_cast<std::size_t>(pass)];
    const int length = family.length;
    phases_ += length;
    pairs_per_view_ += static_cast<std::int64_t>(family.lines()) *
                       ((length + 1) / 2 * line_pairs(length, 0) +
                        length / 2 * line_pairs(length, 1));
  }
}

std::size_t CompiledOET::heap_bytes() const noexcept {
  std::size_t total = schedule_.families.capacity() * sizeof(OETLines) +
                      schedule_.passes.capacity() * sizeof(int) +
                      layouts_.capacity() * sizeof(Layout);
  for (const OETLines& family : schedule_.families)
    total += family.offsets.capacity() * sizeof(std::int32_t) +
             family.flipped.capacity();
  return total;
}

TileViews::TileViews(const ProductGraph& pg, std::vector<ViewSpec> views,
                     std::vector<bool> descending)
    : views_(std::move(views)),
      descending_(std::move(descending)),
      radix_(pg.radix()),
      dims_(pg.dims()) {
  if (descending_.size() != views_.size())
    throw std::invalid_argument(
        "S2 schedule: one descending flag per view required");
  for (const ViewSpec& v : views_)
    if (v.dims() != 2 || !tile_base(pg, v.lo, v.base))
      throw std::invalid_argument(
          "S2 schedule: every view needs exactly two free dimensions "
          "of the product");
}

std::size_t TileViews::heap_bytes() const noexcept {
  return views_.capacity() * sizeof(ViewSpec) +
         (descending_.capacity() + 7) / 8;
}

BlockTransposition::BlockTransposition(const ProductGraph& pg, int lo,
                                       std::vector<PNode> low,
                                       std::vector<PNode> high)
    : low_(std::move(low)),
      high_(std::move(high)),
      stride_(0),
      block_nodes_(PNode{pg.radix()} * pg.radix()),
      radix_(pg.radix()),
      dims_(pg.dims()) {
  if (lo < 1 || lo >= pg.dims())
    throw std::invalid_argument(
        "block transposition: blocks need dimensions lo, lo+1 of the "
        "product");
  stride_ = pg.weight(lo);
  if (low_.size() != high_.size())
    throw std::invalid_argument("block transposition: unpaired block");
  for (std::size_t i = 0; i < low_.size(); ++i)
    if (!tile_base(pg, lo, low_[i]) || !tile_base(pg, lo, high_[i]))
      throw std::invalid_argument(
          "block transposition: a base is not a PG_2 block at dimensions "
          "lo, lo+1");
}

std::vector<CEPair> BlockTransposition::expand() const {
  std::vector<CEPair> pairs;
  pairs.reserve(this->pairs());
  for (std::size_t i = 0; i < low_.size(); ++i)
    for (PNode k = 0; k < block_nodes_; ++k)
      pairs.push_back({low_[i] + k * stride_, high_[i] + k * stride_});
  return pairs;
}

std::size_t BlockTransposition::heap_bytes() const noexcept {
  return (low_.capacity() + high_.capacity()) * sizeof(PNode);
}

}  // namespace prodsort
