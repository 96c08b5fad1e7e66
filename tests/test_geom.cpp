#include <gtest/gtest.h>

#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace mrtpl::geom {
namespace {

TEST(Point, DistanceBasics) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(chebyshev({0, 0}, {3, 4}), 4);
  EXPECT_EQ(manhattan({-2, -2}, {-2, -2}), 0);
  EXPECT_EQ(chebyshev({5, 1}, {1, 5}), 4);
}

TEST(Point, DistanceSymmetry) {
  const Point a{7, -3}, b{-1, 9};
  EXPECT_EQ(manhattan(a, b), manhattan(b, a));
  EXPECT_EQ(chebyshev(a, b), chebyshev(b, a));
}

TEST(Point, ChebyshevLeqManhattan) {
  for (int x = -3; x <= 3; ++x)
    for (int y = -3; y <= 3; ++y) {
      const Point p{x, y}, o{0, 0};
      EXPECT_LE(chebyshev(p, o), manhattan(p, o));
      EXPECT_LE(manhattan(p, o), 2 * chebyshev(p, o));
    }
}

TEST(Point, Arithmetic) {
  const Point a{1, 2}, b{3, -4};
  EXPECT_EQ(a + b, Point(4, -2));
  EXPECT_EQ(a - b, Point(-2, 6));
}

TEST(Rect, BasicProperties) {
  const Rect r{1, 2, 4, 6};
  EXPECT_TRUE(r.valid());
  EXPECT_EQ(r.width(), 4);
  EXPECT_EQ(r.height(), 5);
  EXPECT_EQ(r.area(), 20);
  EXPECT_EQ(r.center(), Point(2, 4));
}

TEST(Rect, ContainsAndOverlap) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.contains(Point{0, 0}));
  EXPECT_TRUE(r.contains(Point{10, 10}));
  EXPECT_FALSE(r.contains(Point{11, 10}));
  EXPECT_TRUE(r.overlaps(Rect{10, 10, 12, 12}));  // closed rects share corner
  EXPECT_FALSE(r.overlaps(Rect{11, 0, 12, 12}));
  EXPECT_TRUE(r.contains(Rect{2, 2, 8, 8}));
  EXPECT_FALSE(r.contains(Rect{2, 2, 11, 8}));
}

TEST(Rect, UnionIntersection) {
  const Rect a{0, 0, 4, 4}, b{2, 2, 8, 8};
  EXPECT_EQ(a.united(b), Rect(0, 0, 8, 8));
  EXPECT_EQ(a.intersected(b), Rect(2, 2, 4, 4));
  const Rect disjoint{6, 6, 7, 7};
  EXPECT_FALSE(a.intersected(disjoint).valid());
}

TEST(Rect, Inflate) {
  const Rect r{5, 5, 6, 6};
  EXPECT_EQ(r.inflated(2), Rect(3, 3, 8, 8));
  EXPECT_EQ(r.inflated(2).inflated(-2), r);
  EXPECT_FALSE(r.inflated(-2).valid());
}

TEST(Rect, DistanceToPoint) {
  const Rect r{2, 2, 5, 5};
  EXPECT_EQ(r.chebyshev_to({3, 3}), 0);
  EXPECT_EQ(r.chebyshev_to({0, 3}), 2);
  EXPECT_EQ(r.chebyshev_to({0, 0}), 2);
  EXPECT_EQ(r.manhattan_to({0, 0}), 4);
  EXPECT_EQ(r.manhattan_to({7, 6}), 3);
}

// Property sweep: union contains both operands; intersection is inside both.
class RectPairProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RectPairProperty, UnionIntersectionInvariants) {
  const auto [i, j] = GetParam();
  const Rect a{i % 5, i / 5, i % 5 + 1 + i % 3, i / 5 + 1 + i % 2};
  const Rect b{j % 5, j / 5, j % 5 + 1 + j % 4, j / 5 + 1 + j % 3};
  const Rect u = a.united(b);
  EXPECT_TRUE(u.contains(a));
  EXPECT_TRUE(u.contains(b));
  const Rect x = a.intersected(b);
  if (x.valid()) {
    EXPECT_TRUE(a.contains(x));
    EXPECT_TRUE(b.contains(x));
    EXPECT_TRUE(a.overlaps(b));
  } else {
    EXPECT_FALSE(a.overlaps(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RectPairProperty,
                         ::testing::Combine(::testing::Range(0, 20),
                                            ::testing::Range(0, 20)));

}  // namespace
}  // namespace mrtpl::geom
