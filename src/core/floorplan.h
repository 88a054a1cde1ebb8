// Mutable placement state over a ChipletSystem.
//
// A Floorplan assigns each chiplet an (x, y) lower-left position and an
// optional 90-degree rotation. Chiplets may be unplaced (during sequential RL
// placement); geometric queries treat unplaced chiplets as absent.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/chiplet.h"
#include "core/geometry.h"

namespace rlplan {

/// Position + orientation of one placed chiplet.
struct Placement {
  Point position;         ///< lower-left corner, mm
  bool rotated = false;   ///< true: width/height swapped (90 deg rotation)

  bool operator==(const Placement& o) const = default;
};

/// Footprint of `chip` at placement `p`: anchored at p.position, width and
/// height swapped when rotated.
inline Rect footprint(const Chiplet& chip, const Placement& p) {
  return {p.position.x, p.position.y, p.rotated ? chip.height : chip.width,
          p.rotated ? chip.width : chip.height};
}

class Floorplan {
 public:
  /// `system` must outlive the floorplan *at a stable address* (the
  /// floorplan stores a pointer): do not keep floorplans across reallocation
  /// of a container that owns their systems.
  explicit Floorplan(const ChipletSystem& system);

  const ChipletSystem& system() const { return *system_; }

  std::size_t num_chiplets() const { return placements_.size(); }
  bool is_placed(std::size_t i) const { return placements_.at(i).has_value(); }
  std::size_t num_placed() const;
  bool is_complete() const { return num_placed() == num_chiplets(); }

  /// Places (or re-places) chiplet i. No legality check — see can_place().
  void place(std::size_t i, Point lower_left, bool rotated = false);
  void unplace(std::size_t i);
  void clear();

  const std::optional<Placement>& placement(std::size_t i) const {
    return placements_.at(i);
  }

  /// Effective footprint of chiplet i given its rotation flag.
  /// Precondition: is_placed(i).
  Rect rect_of(std::size_t i) const;

  /// Footprint chiplet i WOULD occupy at the given placement.
  Rect rect_for(std::size_t i, Point lower_left, bool rotated) const;

  /// Legality: inside the interposer and no interior overlap (with at least
  /// `spacing` mm of clearance) against every *other placed* chiplet.
  bool can_place(std::size_t i, Point lower_left, bool rotated,
                 double spacing = 0.0) const;

  /// True when the complete floorplan is legal under `spacing`.
  bool is_legal(double spacing = 0.0) const;

  /// Total pairwise interior overlap area over placed chiplets (0 if legal).
  double total_overlap_area() const;

  /// Sum over nets of wires * Manhattan(center_a, center_b) — the quick
  /// wirelength proxy used inside optimization loops before microbump
  /// assignment refines it. Unplaced endpoints contribute 0.
  double center_wirelength() const;

  /// Bounding box of all placed chiplets (zero rect when none placed).
  Rect bounding_box() const;

  /// Rects of all currently placed chiplets, indexed like the system.
  /// Unplaced entries are std::nullopt.
  std::vector<std::optional<Rect>> placed_rects() const;

 private:
  const ChipletSystem* system_;
  std::vector<std::optional<Placement>> placements_;
};

}  // namespace rlplan
