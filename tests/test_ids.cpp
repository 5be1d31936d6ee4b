// Unit tests for the sorted NodeSet helpers in common/ids.
#include "common/ids.hpp"

#include <gtest/gtest.h>

namespace manet {
namespace {

TEST(IdsTest, InsertKeepsSortedAndUnique) {
  NodeSet s;
  EXPECT_TRUE(insert_sorted(s, 5));
  EXPECT_TRUE(insert_sorted(s, 1));
  EXPECT_TRUE(insert_sorted(s, 3));
  EXPECT_FALSE(insert_sorted(s, 3));
  EXPECT_EQ(s, (NodeSet{1, 3, 5}));
}

TEST(IdsTest, ContainsSorted) {
  NodeSet s{2, 4, 6};
  EXPECT_TRUE(contains_sorted(s, 4));
  EXPECT_FALSE(contains_sorted(s, 5));
  EXPECT_FALSE(contains_sorted(NodeSet{}, 0));
}

TEST(IdsTest, EraseSorted) {
  NodeSet s{1, 2, 3};
  EXPECT_TRUE(erase_sorted(s, 2));
  EXPECT_FALSE(erase_sorted(s, 2));
  EXPECT_EQ(s, (NodeSet{1, 3}));
}

TEST(IdsTest, ApplySortedFlipsMatchesPerElementEdits) {
  NodeSet s{2, 4, 6, 8, 10};
  apply_sorted_flips(s, {4, 10}, {1, 5, 11});
  EXPECT_EQ(s, (NodeSet{1, 2, 5, 6, 8, 11}));
  // An id removed and re-added in one batch stays; empty batches are
  // no-ops; a removal of an absent id is ignored like erase_sorted's.
  apply_sorted_flips(s, {3, 6}, {6});
  EXPECT_EQ(s, (NodeSet{1, 2, 5, 6, 8, 11}));
  apply_sorted_flips(s, {}, {});
  EXPECT_EQ(s, (NodeSet{1, 2, 5, 6, 8, 11}));
  NodeSet empty;
  apply_sorted_flips(empty, {}, {7, 9});
  EXPECT_EQ(empty, (NodeSet{7, 9}));
  apply_sorted_flips(empty, {7, 9}, {});
  EXPECT_TRUE(empty.empty());
}

TEST(IdsTest, NormalizeSortsAndDedupes) {
  NodeSet s{5, 1, 5, 3, 1};
  normalize(s);
  EXPECT_EQ(s, (NodeSet{1, 3, 5}));
}

TEST(IdsTest, SetDifference) {
  EXPECT_EQ(set_difference({1, 2, 3, 4}, {2, 4}), (NodeSet{1, 3}));
  EXPECT_EQ(set_difference({1, 2}, {}), (NodeSet{1, 2}));
  EXPECT_EQ(set_difference({}, {1}), (NodeSet{}));
  EXPECT_EQ(set_difference({1, 2}, {1, 2}), (NodeSet{}));
}

TEST(IdsTest, SetIntersection) {
  EXPECT_EQ(set_intersection({1, 2, 3}, {2, 3, 4}), (NodeSet{2, 3}));
  EXPECT_EQ(set_intersection({1}, {2}), (NodeSet{}));
}

TEST(IdsTest, SetUnion) {
  EXPECT_EQ(set_union({1, 3}, {2, 3}), (NodeSet{1, 2, 3}));
  EXPECT_EQ(set_union({}, {}), (NodeSet{}));
}

TEST(IdsTest, IntersectionSize) {
  EXPECT_EQ(intersection_size({1, 2, 3}, {2, 3, 4}), 2u);
  EXPECT_EQ(intersection_size({}, {1}), 0u);
  EXPECT_EQ(intersection_size({7}, {7}), 1u);
}

TEST(IdsTest, IsSubset) {
  EXPECT_TRUE(is_subset({2, 3}, {1, 2, 3}));
  EXPECT_TRUE(is_subset({}, {1}));
  EXPECT_FALSE(is_subset({0}, {1, 2}));
  EXPECT_TRUE(is_subset({}, {}));
}

TEST(IdsTest, InvalidNodeIsNotAValidId) {
  EXPECT_GT(kInvalidNode, 1u << 30);
}

}  // namespace
}  // namespace manet
