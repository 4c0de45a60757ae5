#include "product/snake_order.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/labeled_factor.hpp"

namespace prodsort {
namespace {

TEST(SnakeOrderTest, MatchesFig3ForThreeNodeFactor) {
  // Fig. 3: snake order of the 27-node product; the first nine nodes are
  // the dimension-3 = 0 layer traversed as Q_2, i.e. tuples
  // (x3 x2 x1): 000,001,002,012,011,010,020,021,022.
  const ProductGraph pg(labeled_path(3), 3);
  const PNode expected[] = {
      pg.node_of(std::vector<NodeId>{0, 0, 0}),
      pg.node_of(std::vector<NodeId>{1, 0, 0}),
      pg.node_of(std::vector<NodeId>{2, 0, 0}),
      pg.node_of(std::vector<NodeId>{2, 1, 0}),
      pg.node_of(std::vector<NodeId>{1, 1, 0}),
      pg.node_of(std::vector<NodeId>{0, 1, 0}),
      pg.node_of(std::vector<NodeId>{0, 2, 0}),
      pg.node_of(std::vector<NodeId>{1, 2, 0}),
      pg.node_of(std::vector<NodeId>{2, 2, 0}),
  };
  for (PNode rank = 0; rank < 9; ++rank)
    EXPECT_EQ(node_at_snake_rank(pg, rank), expected[rank]) << rank;
}

class SnakeOrderParamTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  ProductGraph make() const {
    const auto [n, r] = GetParam();
    return ProductGraph(labeled_path(static_cast<NodeId>(n)), r);
  }
};

TEST_P(SnakeOrderParamTest, RankIsABijection) {
  const ProductGraph pg = make();
  std::set<PNode> nodes;
  for (PNode rank = 0; rank < pg.num_nodes(); ++rank) {
    const PNode node = node_at_snake_rank(pg, rank);
    EXPECT_TRUE(nodes.insert(node).second);
    EXPECT_EQ(snake_rank(pg, node), rank);
  }
}

TEST_P(SnakeOrderParamTest, ConsecutiveRanksAreAdjacentDigits) {
  // Gray property: successive snake positions differ in one digit by one.
  const ProductGraph pg = make();
  for (PNode rank = 0; rank + 1 < pg.num_nodes(); ++rank) {
    const PNode a = node_at_snake_rank(pg, rank);
    const PNode b = node_at_snake_rank(pg, rank + 1);
    int diffs = 0;
    for (int i = 1; i <= pg.dims(); ++i) {
      const int delta = pg.digit(a, i) - pg.digit(b, i);
      if (delta != 0) {
        ++diffs;
        EXPECT_EQ(std::abs(delta), 1);
      }
    }
    EXPECT_EQ(diffs, 1);
  }
}

TEST_P(SnakeOrderParamTest, FixHighChildrenAreContiguousRuns) {
  // Definition 2(b): [u]PG^r blocks occupy consecutive rank ranges, in
  // parent order u, with direction alternating by u's parity (2(a)).
  const ProductGraph pg = make();
  if (pg.dims() < 2) return;
  const PNode block = pg.num_nodes() / pg.radix();
  for (NodeId u = 0; u < pg.radix(); ++u) {
    const ViewSpec child = fix_high(pg, full_view(pg), u);
    for (PNode j = 0; j < block; ++j) {
      const PNode node = node_at_snake_rank(pg, u * block + j);
      EXPECT_TRUE(view_contains(pg, child, node));
      const PNode local_rank = view_snake_rank(pg, child, node);
      EXPECT_EQ(local_rank, (u % 2 == 0) ? j : block - 1 - j);
    }
  }
}

TEST_P(SnakeOrderParamTest, FixLowChildrenFollowSubsequenceLaw) {
  // The Step-1-is-free identity: the nodes of [v]PG^1, visited in their
  // own snake order, sit at parent ranks v, 2N-v-1, 2N+v, ... — so a
  // snake-sorted parent leaves every [v]PG^1 snake-sorted.
  const ProductGraph pg = make();
  if (pg.dims() < 2) return;
  const PNode sub_total = pg.num_nodes() / pg.radix();
  for (NodeId v = 0; v < pg.radix(); ++v) {
    const ViewSpec child = fix_low(pg, full_view(pg), v);
    for (PNode j = 0; j < sub_total; ++j) {
      const PNode node = view_node_at_snake_rank(pg, child, j);
      EXPECT_EQ(snake_rank(pg, node),
                subsequence_position(pg.radix(), v, j))
          << "v=" << v << " j=" << j;
    }
  }
}

TEST_P(SnakeOrderParamTest, BlockGroupLabelsFormGraySequence) {
  // [*,*]Q^{1,2}: PG_2 blocks ordered by the Gray rank of their group
  // labels; consecutive blocks differ by one in a single group digit.
  const ProductGraph pg = make();
  if (pg.dims() < 3) return;
  const int group_dims = pg.dims() - 2;
  const PNode nblocks = pow_int(pg.radix(), group_dims);
  std::vector<NodeId> prev;
  for (PNode z = 0; z < nblocks; ++z) {
    std::vector<NodeId> label(static_cast<std::size_t>(group_dims));
    gray_tuple(pg.radix(), z, label);
    if (!prev.empty()) {
      EXPECT_EQ(hamming_distance(prev, label), 1);
    }
    prev = label;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SnakeOrderParamTest,
                         ::testing::Values(std::pair<int, int>{2, 1},
                                           std::pair<int, int>{2, 5},
                                           std::pair<int, int>{3, 2},
                                           std::pair<int, int>{3, 4},
                                           std::pair<int, int>{4, 3},
                                           std::pair<int, int>{5, 2},
                                           std::pair<int, int>{6, 3}));

TEST(SnakeOrderTest, ViewRanksAreLocal) {
  const ProductGraph pg(labeled_path(3), 4);
  // The (2,3) view with dim1=2, dim4=1 fixed.
  ViewSpec v = fix_high(pg, full_view(pg), 1);
  v = fix_low(pg, v, 2);
  std::set<PNode> seen;
  for (PNode rank = 0; rank < view_size(pg, v); ++rank) {
    const PNode node = view_node_at_snake_rank(pg, v, rank);
    EXPECT_TRUE(view_contains(pg, v, node));
    EXPECT_EQ(view_snake_rank(pg, v, node), rank);
    EXPECT_TRUE(seen.insert(node).second);
  }
}

TEST(SnakeOrderTest, WalkerMatchesPerRankDecodeFromEveryStart) {
  // Every view (each free range lo..hi, each base) of path(2)^5 (the
  // bit-parallel brgc decode), path(3)^4 and cycle(5)^3, walked from
  // every start rank to the end of its snake.
  const ProductGraph graphs[] = {ProductGraph(labeled_path(2), 5),
                                 ProductGraph(labeled_path(3), 4),
                                 ProductGraph(labeled_cycle(5), 3)};
  for (const ProductGraph& pg : graphs) {
    for (int lo = 1; lo <= pg.dims(); ++lo) {
      for (int hi = lo; hi <= pg.dims(); ++hi) {
        for (const ViewSpec& v : all_views(pg, lo, hi)) {
          const PNode size = view_size(pg, v);
          for (PNode start = 0; start < size; ++start) {
            SnakeWalker walk(pg, v, start);
            for (PNode rank = start; rank < size; ++rank, walk.next()) {
              ASSERT_EQ(walk.rank(), rank);
              ASSERT_EQ(walk.node(), view_node_at_snake_rank(pg, v, rank))
                  << "N=" << pg.radix() << " view " << lo << ".." << hi
                  << " base " << v.base << " start " << start;
            }
            // One step past the end stays on the last node.
            EXPECT_EQ(walk.node(), view_node_at_snake_rank(pg, v, size - 1));
          }
          EXPECT_THROW((void)SnakeWalker(pg, v, size), std::out_of_range);
          EXPECT_THROW((void)SnakeWalker(pg, v, -1), std::out_of_range);
        }
      }
    }
  }
}

TEST(SnakeOrderTest, HandBuiltViewSpecsAreValidated) {
  // ViewSpec is an aggregate; out-of-range free ranges must be rejected
  // before they index the weight table or overrun digit buffers.
  const ProductGraph pg(labeled_path(3), 3);
  for (const ViewSpec bad : {ViewSpec{0, 2, 0}, ViewSpec{1, 4, 0},
                             ViewSpec{3, 2, 0}, ViewSpec{1, 80, 0}}) {
    EXPECT_THROW((void)view_snake_rank(pg, bad, 0), std::out_of_range);
    EXPECT_THROW((void)view_node_at_snake_rank(pg, bad, 0), std::out_of_range);
    EXPECT_THROW((void)SnakeWalker(pg, bad), std::out_of_range);
  }
}

TEST(SnakeOrderTest, WeightParityValues) {
  const ProductGraph pg(labeled_path(4), 3);
  const PNode node = pg.node_of(std::vector<NodeId>{1, 2, 3});
  EXPECT_TRUE(weight_parity(pg, node, 2, 3));   // 2+3 odd
  EXPECT_FALSE(weight_parity(pg, node, 1, 3));  // 1+2+3 even
  EXPECT_TRUE(weight_parity(pg, node, 1, 1));   // 1 odd
}

}  // namespace
}  // namespace prodsort
