#include "core/floorplan.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace rlplan {

Floorplan::Floorplan(const ChipletSystem& system)
    : system_(&system), placements_(system.num_chiplets()) {}

std::size_t Floorplan::num_placed() const {
  return static_cast<std::size_t>(
      std::count_if(placements_.begin(), placements_.end(),
                    [](const auto& p) { return p.has_value(); }));
}

void Floorplan::place(std::size_t i, Point lower_left, bool rotated) {
  placements_.at(i) = Placement{lower_left, rotated};
}

void Floorplan::unplace(std::size_t i) { placements_.at(i).reset(); }

void Floorplan::clear() {
  for (auto& p : placements_) p.reset();
}

Rect Floorplan::rect_of(std::size_t i) const {
  const auto& p = placements_.at(i);
  if (!p) {
    throw std::logic_error("rect_of: chiplet " + std::to_string(i) +
                           " is not placed");
  }
  return rect_for(i, p->position, p->rotated);
}

Rect Floorplan::rect_for(std::size_t i, Point lower_left, bool rotated) const {
  return footprint(system_->chiplet(i), {lower_left, rotated});
}

bool Floorplan::can_place(std::size_t i, Point lower_left, bool rotated,
                          double spacing) const {
  const Rect r = rect_for(i, lower_left, rotated);
  if (!system_->interposer_rect().contains(r)) return false;
  const Rect grown = spacing > 0.0 ? r.inflated(spacing) : r;
  for (std::size_t j = 0; j < placements_.size(); ++j) {
    if (j == i || !placements_[j]) continue;
    if (grown.overlaps(rect_of(j))) return false;
  }
  return true;
}

bool Floorplan::is_legal(double spacing) const {
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (!placements_[i]) return false;
    if (!can_place(i, placements_[i]->position, placements_[i]->rotated,
                   spacing)) {
      return false;
    }
  }
  return true;
}

double Floorplan::total_overlap_area() const {
  double total = 0.0;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (!placements_[i]) continue;
    const Rect ri = rect_of(i);
    for (std::size_t j = i + 1; j < placements_.size(); ++j) {
      if (!placements_[j]) continue;
      total += ri.intersection_area(rect_of(j));
    }
  }
  return total;
}

double Floorplan::center_wirelength() const {
  double wl = 0.0;
  for (const auto& net : system_->nets()) {
    if (!placements_[net.a] || !placements_[net.b]) continue;
    wl += static_cast<double>(net.wires) *
          manhattan(rect_of(net.a).center(), rect_of(net.b).center());
  }
  return wl;
}

Rect Floorplan::bounding_box() const {
  bool any = false;
  double x0 = 0.0, y0 = 0.0, x1 = 0.0, y1 = 0.0;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (!placements_[i]) continue;
    const Rect r = rect_of(i);
    if (!any) {
      x0 = r.x;
      y0 = r.y;
      x1 = r.right();
      y1 = r.top();
      any = true;
    } else {
      x0 = std::min(x0, r.x);
      y0 = std::min(y0, r.y);
      x1 = std::max(x1, r.right());
      y1 = std::max(y1, r.top());
    }
  }
  if (!any) return {};
  return {x0, y0, x1 - x0, y1 - y0};
}

std::vector<std::optional<Rect>> Floorplan::placed_rects() const {
  std::vector<std::optional<Rect>> rects(placements_.size());
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (placements_[i]) rects[i] = rect_of(i);
  }
  return rects;
}

}  // namespace rlplan
