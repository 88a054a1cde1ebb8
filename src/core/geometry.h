// 2D geometry primitives for floorplanning.
//
// All linear dimensions are millimetres; the coordinate origin is the
// lower-left corner of the interposer, x to the right, y up. Rectangles are
// anchored at their lower-left corner (HotSpot floorplan convention).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace rlplan {

struct Point {
  double x = 0.0;
  double y = 0.0;

  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  Point operator*(double s) const { return {x * s, y * s}; }
  bool operator==(const Point& o) const = default;
};

/// Euclidean distance between two points.
inline double euclidean(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// Manhattan (L1) distance — the routing metric on an interposer.
inline double manhattan(const Point& a, const Point& b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Axis-aligned rectangle anchored at lower-left corner (x, y).
struct Rect {
  double x = 0.0;
  double y = 0.0;
  double w = 0.0;
  double h = 0.0;

  double area() const { return w * h; }
  double right() const { return x + w; }
  double top() const { return y + h; }
  Point center() const { return {x + w / 2.0, y + h / 2.0}; }
  Point origin() const { return {x, y}; }

  /// Closed-boundary point containment.
  bool contains(const Point& p) const {
    return p.x >= x && p.x <= right() && p.y >= y && p.y <= top();
  }

  /// True when `inner` lies entirely inside *this (boundaries may touch).
  bool contains(const Rect& inner) const {
    return inner.x >= x && inner.y >= y && inner.right() <= right() &&
           inner.top() <= top();
  }

  /// Strict interior overlap: rectangles that merely share an edge or corner
  /// do NOT overlap (abutting chiplets are legal), and zero-area rectangles
  /// have no interior, so they never overlap anything — overlaps(o) is true
  /// exactly when intersection_area(o) > 0.
  bool overlaps(const Rect& o) const {
    return std::min(right(), o.right()) > std::max(x, o.x) &&
           std::min(top(), o.top()) > std::max(y, o.y);
  }

  /// Area of the intersection (0 when disjoint or merely touching).
  double intersection_area(const Rect& o) const {
    const double ix = std::max(0.0, std::min(right(), o.right()) - std::max(x, o.x));
    const double iy = std::max(0.0, std::min(top(), o.top()) - std::max(y, o.y));
    return ix * iy;
  }

  /// Rectangle expanded by `margin` on every side (negative shrinks).
  Rect inflated(double margin) const {
    return {x - margin, y - margin, w + 2.0 * margin, h + 2.0 * margin};
  }

  bool operator==(const Rect& o) const = default;
};

/// Minimum gap between two rectangles' boundaries along axes; 0 when they
/// touch or overlap. Used for spacing-rule checks.
inline double rect_gap(const Rect& a, const Rect& b) {
  const double dx =
      std::max({a.x - b.right(), b.x - a.right(), 0.0});
  const double dy = std::max({a.y - b.top(), b.y - a.top(), 0.0});
  // Separated along one axis only -> gap is that axis distance; separated
  // diagonally -> Euclidean corner distance.
  if (dx > 0.0 && dy > 0.0) return std::hypot(dx, dy);
  return std::max(dx, dy);
}

/// Center-to-center Euclidean distance between two rectangles.
inline double center_distance(const Rect& a, const Rect& b) {
  return euclidean(a.center(), b.center());
}

/// One grid cell, by row (y) and column (x).
struct GridCell {
  std::size_t row = 0;
  std::size_t col = 0;
};

/// Half-open cell range [row0, row1) x [col0, col1).
struct CellWindow {
  std::size_t row0 = 0;
  std::size_t row1 = 0;
  std::size_t col0 = 0;
  std::size_t col1 = 0;
};

/// rows x cols equal cells tiling [0, width] x [0, height] (mm): the one rule
/// that maps a rectangle onto grid cells. The thermal grid model, its peak
/// readout, the characterizer and the RL observation all raster through it.
class UniformGrid {
 public:
  UniformGrid(double width, double height, std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        cell_w_(width / static_cast<double>(cols)),
        cell_h_(height / static_cast<double>(rows)) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  double cell_w() const { return cell_w_; }
  double cell_h() const { return cell_h_; }

  Rect cell(std::size_t row, std::size_t col) const {
    return {static_cast<double>(col) * cell_w_,
            static_cast<double>(row) * cell_h_, cell_w_, cell_h_};
  }
  Point cell_center(std::size_t row, std::size_t col) const {
    return {(static_cast<double>(col) + 0.5) * cell_w_,
            (static_cast<double>(row) + 0.5) * cell_h_};
  }

  /// The cell containing `p`, clamped onto the grid.
  GridCell cell_of(const Point& p) const {
    return {static_cast<std::size_t>(std::clamp(
                std::floor(p.y / cell_h_), 0.0, double(rows_ - 1))),
            static_cast<std::size_t>(std::clamp(
                std::floor(p.x / cell_w_), 0.0, double(cols_ - 1)))};
  }

  /// Every cell `r` can cover lies in this window (it may also hold cells
  /// `r` only touches, and is empty when `r` lies left of or below the grid).
  CellWindow window(const Rect& r) const {
    const GridCell lo = cell_of(r.origin());
    return {lo.row,
            static_cast<std::size_t>(std::clamp(std::ceil(r.top() / cell_h_),
                                                0.0, double(rows_))),
            lo.col,
            static_cast<std::size_t>(std::clamp(std::ceil(r.right() / cell_w_),
                                                0.0, double(cols_)))};
  }

  /// Fraction of cell (row, col) covered by `r`, in [0, 1].
  double coverage(std::size_t row, std::size_t col, const Rect& r) const {
    const Rect c = cell(row, col);
    return c.intersection_area(r) / c.area();
  }

  /// Calls f(row, col, coverage) for every cell `r` covers (coverage > 0),
  /// row-major.
  template <typename F>
  void for_each_covered(const Rect& r, F&& f) const {
    const CellWindow w = window(r);
    for (std::size_t row = w.row0; row < w.row1; ++row) {
      for (std::size_t col = w.col0; col < w.col1; ++col) {
        const double c = coverage(row, col, r);
        if (c > 0.0) f(row, col, c);
      }
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  double cell_w_;
  double cell_h_;
};

}  // namespace rlplan
