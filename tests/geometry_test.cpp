#include "core/geometry.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/rng.h"

namespace rlplan {
namespace {

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -1.0};
  EXPECT_EQ((a + b), (Point{4.0, 1.0}));
  EXPECT_EQ((a - b), (Point{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (Point{2.0, 4.0}));
}

TEST(Point, Distances) {
  const Point a{0.0, 0.0};
  const Point b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
  EXPECT_DOUBLE_EQ(manhattan(a, b), 7.0);
  EXPECT_DOUBLE_EQ(euclidean(a, a), 0.0);
  EXPECT_DOUBLE_EQ(manhattan(b, a), 7.0);  // symmetry
}

TEST(Rect, BasicAccessors) {
  const Rect r{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_DOUBLE_EQ(r.right(), 4.0);
  EXPECT_DOUBLE_EQ(r.top(), 6.0);
  EXPECT_EQ(r.center(), (Point{2.5, 4.0}));
}

TEST(Rect, ContainsPoint) {
  const Rect r{0.0, 0.0, 10.0, 5.0};
  EXPECT_TRUE(r.contains(Point{5.0, 2.5}));
  EXPECT_TRUE(r.contains(Point{0.0, 0.0}));    // boundary inclusive
  EXPECT_TRUE(r.contains(Point{10.0, 5.0}));   // far corner inclusive
  EXPECT_FALSE(r.contains(Point{10.01, 2.0}));
  EXPECT_FALSE(r.contains(Point{5.0, -0.01}));
}

TEST(Rect, ContainsRect) {
  const Rect outer{0.0, 0.0, 10.0, 10.0};
  EXPECT_TRUE(outer.contains(Rect{2.0, 2.0, 3.0, 3.0}));
  EXPECT_TRUE(outer.contains(outer));  // self containment
  EXPECT_TRUE(outer.contains(Rect{0.0, 0.0, 10.0, 5.0}));
  EXPECT_FALSE(outer.contains(Rect{8.0, 8.0, 3.0, 3.0}));
  EXPECT_FALSE(outer.contains(Rect{-0.1, 0.0, 1.0, 1.0}));
}

TEST(Rect, OverlapIsStrictInterior) {
  const Rect a{0.0, 0.0, 5.0, 5.0};
  EXPECT_TRUE(a.overlaps(Rect{4.0, 4.0, 5.0, 5.0}));
  // Edge-sharing rectangles do NOT overlap (abutment is legal).
  EXPECT_FALSE(a.overlaps(Rect{5.0, 0.0, 5.0, 5.0}));
  // Corner touching is not overlap.
  EXPECT_FALSE(a.overlaps(Rect{5.0, 5.0, 2.0, 2.0}));
  EXPECT_FALSE(a.overlaps(Rect{6.0, 0.0, 1.0, 1.0}));
  EXPECT_TRUE(a.overlaps(a));
}

TEST(Rect, OverlapIsSymmetric) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const Rect a{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.1, 5),
                 rng.uniform(0.1, 5)};
    const Rect b{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.1, 5),
                 rng.uniform(0.1, 5)};
    EXPECT_EQ(a.overlaps(b), b.overlaps(a));
  }
}

TEST(Rect, IntersectionArea) {
  const Rect a{0.0, 0.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(a.intersection_area(Rect{2.0, 2.0, 4.0, 4.0}), 4.0);
  EXPECT_DOUBLE_EQ(a.intersection_area(Rect{4.0, 0.0, 2.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(a.intersection_area(a), 16.0);
  EXPECT_DOUBLE_EQ(a.intersection_area(Rect{1.0, 1.0, 2.0, 2.0}), 4.0);
}

TEST(Rect, IntersectionAreaConsistentWithOverlap) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Rect a{rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(0.1, 8),
                 rng.uniform(0.1, 8)};
    const Rect b{rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(0.1, 8),
                 rng.uniform(0.1, 8)};
    EXPECT_EQ(a.intersection_area(b) > 0.0, a.overlaps(b))
        << "intersection area and overlap predicate disagree";
    EXPECT_NEAR(a.intersection_area(b), b.intersection_area(a), 1e-12);
  }
}

TEST(Rect, Inflated) {
  const Rect r{2.0, 3.0, 4.0, 5.0};
  const Rect grown = r.inflated(1.0);
  EXPECT_DOUBLE_EQ(grown.x, 1.0);
  EXPECT_DOUBLE_EQ(grown.y, 2.0);
  EXPECT_DOUBLE_EQ(grown.w, 6.0);
  EXPECT_DOUBLE_EQ(grown.h, 7.0);
  const Rect shrunk = r.inflated(-1.0);
  EXPECT_DOUBLE_EQ(shrunk.w, 2.0);
  EXPECT_DOUBLE_EQ(shrunk.h, 3.0);
}

TEST(RectGap, SeparatedAlongAxis) {
  const Rect a{0.0, 0.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(rect_gap(a, Rect{5.0, 0.0, 2.0, 2.0}), 3.0);
  EXPECT_DOUBLE_EQ(rect_gap(a, Rect{0.0, 7.0, 2.0, 2.0}), 5.0);
}

TEST(RectGap, TouchingAndOverlapping) {
  const Rect a{0.0, 0.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(rect_gap(a, Rect{2.0, 0.0, 2.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(rect_gap(a, Rect{1.0, 1.0, 2.0, 2.0}), 0.0);
}

TEST(RectGap, DiagonalSeparation) {
  const Rect a{0.0, 0.0, 1.0, 1.0};
  const Rect b{4.0, 5.0, 1.0, 1.0};
  // dx = 3, dy = 4 -> corner distance 5.
  EXPECT_DOUBLE_EQ(rect_gap(a, b), 5.0);
}

// ---------------------------------------------------------------------------
// Property-based invariants over seeded random rectangles.
//
// Symmetry invariants hold bit-for-bit (both argument orders evaluate the
// same set of terms). Translation invariants allow an absolute 1e-10
// tolerance: translated coordinate sums round, and quantities like a sliver
// intersection suffer catastrophic cancellation, so ULP-relative comparison
// would be wrong by construction. Predicates (overlap/containment) are
// compared exactly; the fixed seeds keep them away from the measure-zero
// boundary cases where a rounded sum could legitimately flip a strict
// inequality.
constexpr double kGeomTol = 1e-10;

Rect random_rect(Rng& rng, double span = 20.0, double max_dim = 8.0) {
  return {rng.uniform(-span, span), rng.uniform(-span, span),
          rng.uniform(0.1, max_dim), rng.uniform(0.1, max_dim)};
}

Rect translated(const Rect& r, double dx, double dy) {
  return {r.x + dx, r.y + dy, r.w, r.h};
}

TEST(RectProperties, OverlapAndGapAndDistanceAreSymmetric) {
  Rng rng(0x9e0ULL);
  for (int i = 0; i < 500; ++i) {
    const Rect a = random_rect(rng);
    const Rect b = random_rect(rng);
    EXPECT_EQ(a.overlaps(b), b.overlaps(a));
    EXPECT_EQ(rect_gap(a, b), rect_gap(b, a));
    EXPECT_EQ(center_distance(a, b), center_distance(b, a));
    EXPECT_EQ(a.intersection_area(b), b.intersection_area(a));
  }
}

TEST(RectProperties, PredicatesAreTranslationInvariant) {
  Rng rng(0x7a1ULL);
  for (int i = 0; i < 500; ++i) {
    const Rect a = random_rect(rng);
    const Rect b = random_rect(rng);
    const double dx = 0.25 * static_cast<double>(
                                 rng.uniform_int(std::int64_t{-64}, 64));
    const double dy = 0.25 * static_cast<double>(
                                 rng.uniform_int(std::int64_t{-64}, 64));
    const Rect at = translated(a, dx, dy);
    const Rect bt = translated(b, dx, dy);
    EXPECT_EQ(a.overlaps(b), at.overlaps(bt)) << "case " << i;
    EXPECT_EQ(a.contains(b), at.contains(bt)) << "case " << i;
    EXPECT_NEAR(a.intersection_area(b), at.intersection_area(bt), kGeomTol);
    EXPECT_NEAR(rect_gap(a, b), rect_gap(at, bt), kGeomTol);
    EXPECT_NEAR(center_distance(a, b), center_distance(at, bt), kGeomTol);
  }
}

TEST(RectProperties, OverlapGapAndIntersectionAreaAreConsistent) {
  Rng rng(0xabcULL);
  for (int i = 0; i < 500; ++i) {
    const Rect a = random_rect(rng);
    const Rect b = random_rect(rng);
    // Strict-interior overlap <=> positive intersection area; any positive
    // gap implies no overlap; overlapping rects have zero gap.
    EXPECT_EQ(a.overlaps(b), a.intersection_area(b) > 0.0);
    if (rect_gap(a, b) > 0.0) EXPECT_FALSE(a.overlaps(b));
    if (a.overlaps(b)) EXPECT_DOUBLE_EQ(rect_gap(a, b), 0.0);
    // Intersection area never exceeds either operand's area.
    EXPECT_LE(a.intersection_area(b), a.area() + 1e-12);
    EXPECT_LE(a.intersection_area(b), b.area() + 1e-12);
  }
}

TEST(RectProperties, ContainmentImpliesInnerAreaIntersection) {
  Rng rng(0x321ULL);
  for (int i = 0; i < 300; ++i) {
    const Rect outer = random_rect(rng, 10.0, 8.0);
    // An inner rect drawn inside outer by construction.
    const double fx = rng.uniform(0.0, 0.7);
    const double fy = rng.uniform(0.0, 0.7);
    const Rect inner{outer.x + fx * outer.w, outer.y + fy * outer.h,
                     (1.0 - fx) * outer.w * rng.uniform(0.1, 1.0),
                     (1.0 - fy) * outer.h * rng.uniform(0.1, 1.0)};
    ASSERT_TRUE(outer.contains(inner));
    EXPECT_NEAR(outer.intersection_area(inner), inner.area(), 1e-12);
    // Containment is reflexive and antisymmetric on distinct areas.
    EXPECT_TRUE(inner.contains(inner));
    if (inner.area() < outer.area()) EXPECT_FALSE(inner.contains(outer));
    // All four corners of a contained rect are contained points.
    EXPECT_TRUE(outer.contains(Point{inner.x, inner.y}));
    EXPECT_TRUE(outer.contains(Point{inner.right(), inner.top()}));
  }
}

TEST(RectProperties, ZeroAreaRectsNeverOverlapButMayTouchAndContain) {
  Rng rng(0x444ULL);
  for (int i = 0; i < 200; ++i) {
    // Degenerate rects: zero width, zero height, or a point.
    Rect line = random_rect(rng);
    if (i % 2 == 0) {
      line.w = 0.0;
    } else {
      line.h = 0.0;
    }
    const Rect solid = random_rect(rng);
    // A zero-area rect has no interior, so strict-interior overlap is
    // impossible — keeping overlaps() consistent with intersection_area()
    // even for degenerate inputs.
    EXPECT_FALSE(line.overlaps(solid)) << "case " << i;
    EXPECT_FALSE(solid.overlaps(line)) << "case " << i;
    EXPECT_EQ(line.overlaps(solid), line.intersection_area(solid) > 0.0);
    EXPECT_DOUBLE_EQ(line.intersection_area(solid), 0.0);
    EXPECT_DOUBLE_EQ(line.area(), 0.0);
    // ...but closed-boundary containment still works.
    EXPECT_TRUE(line.contains(Point{line.x, line.y}));
    EXPECT_TRUE(line.contains(line));
  }
  const Rect point{3.0, 4.0, 0.0, 0.0};
  EXPECT_FALSE(point.overlaps(point));
  EXPECT_TRUE(point.contains(point));
  EXPECT_TRUE(point.contains(Point{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(rect_gap(point, Rect{3.0, 4.0, 1.0, 1.0}), 0.0);
}

TEST(RectProperties, InflateShrinkRoundTripAndMonotonicity) {
  Rng rng(0x777ULL);
  for (int i = 0; i < 200; ++i) {
    const Rect r = random_rect(rng);
    const double m = 0.5 * static_cast<double>(
                               rng.uniform_int(std::int64_t{0}, 8));
    const Rect round_trip = r.inflated(m).inflated(-m);
    EXPECT_NEAR(round_trip.x, r.x, kGeomTol);
    EXPECT_NEAR(round_trip.y, r.y, kGeomTol);
    EXPECT_NEAR(round_trip.w, r.w, kGeomTol);
    EXPECT_NEAR(round_trip.h, r.h, kGeomTol);
    // A grown rect contains the original; the center moves only by rounding.
    EXPECT_TRUE(r.inflated(m).contains(r));
    EXPECT_NEAR(r.inflated(m).center().x, r.center().x, kGeomTol);
    EXPECT_NEAR(r.inflated(m).center().y, r.center().y, kGeomTol);
  }
}

TEST(UniformGrid, DieOnTheRightTopEdge) {
  const UniformGrid grid(40.0, 40.0, 8, 8);  // 5 mm cells
  const Rect die{32.5, 35.0, 7.5, 5.0};      // touches x = 40 and y = 40
  const CellWindow w = grid.window(die);
  EXPECT_EQ(w.row0, 7u);
  EXPECT_EQ(w.row1, 8u);
  EXPECT_EQ(w.col0, 6u);
  EXPECT_EQ(w.col1, 8u);
  EXPECT_DOUBLE_EQ(grid.coverage(7, 6, die), 0.5);
  EXPECT_DOUBLE_EQ(grid.coverage(7, 7, die), 1.0);
  const GridCell corner = grid.cell_of({40.0, 40.0});  // clamped onto grid
  EXPECT_EQ(corner.row, 7u);
  EXPECT_EQ(corner.col, 7u);
}

TEST(UniformGrid, DieSmallerThanOneCell) {
  const UniformGrid grid(40.0, 40.0, 8, 8);
  const Rect die{11.0, 21.0, 2.0, 2.0};
  std::size_t cells = 0;
  grid.for_each_covered(die, [&](std::size_t row, std::size_t col, double f) {
    EXPECT_EQ(row, 4u);
    EXPECT_EQ(col, 2u);
    EXPECT_DOUBLE_EQ(f, 4.0 / 25.0);
    ++cells;
  });
  EXPECT_EQ(cells, 1u);
  const GridCell c = grid.cell_of(die.center());
  EXPECT_EQ(c.row, 4u);
  EXPECT_EQ(c.col, 2u);
}

TEST(UniformGrid, DiePastTheInterposerEdge) {
  const UniformGrid grid(40.0, 40.0, 8, 8);
  // Hangs 5 mm past the right edge: only the on-grid part is covered.
  const Rect right{37.5, 0.0, 7.5, 5.0};
  double covered = 0.0;
  grid.for_each_covered(right, [&](std::size_t, std::size_t col, double f) {
    EXPECT_EQ(col, 7u);
    covered += f;
  });
  EXPECT_DOUBLE_EQ(covered, 0.5);
  // Entirely left of / below the grid: an empty window.
  const CellWindow off = grid.window({-10.0, -10.0, 5.0, 5.0});
  EXPECT_EQ(off.row1, 0u);
  EXPECT_EQ(off.col1, 0u);
  // Entirely right of the grid: the window clamps onto the last column,
  // which it does not cover.
  std::size_t cells = 0;
  grid.for_each_covered({45.0, 10.0, 5.0, 5.0},
                        [&](std::size_t, std::size_t, double) { ++cells; });
  EXPECT_EQ(cells, 0u);
  const CellWindow beyond = grid.window({45.0, 10.0, 5.0, 5.0});
  EXPECT_EQ(beyond.col0, 7u);
  EXPECT_EQ(beyond.col1, 8u);
}

}  // namespace
}  // namespace rlplan
