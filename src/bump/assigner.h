// Microbump assignment and total-wirelength evaluation (TAP-2.5D style).
//
// After all chiplets are placed, every inter-chiplet net's wires are assigned
// to bump-site pairs on the two dies so that total Manhattan wirelength is
// minimized (greedy nearest-facing-site matching with capacity limits). This
// is the W entering the reward; the cheap center-to-center estimate
// (Floorplan::center_wirelength) is only an optimization-loop proxy.
#pragma once

#include <vector>

#include "bump/bump_grid.h"
#include "core/chiplet.h"
#include "core/floorplan.h"

namespace rlplan::bump {

struct WirelengthReport {
  double total_mm = 0.0;
  std::vector<double> per_net_mm;  ///< indexed like system.nets()
  long wires_assigned = 0;
  /// Wires that exceeded site capacity and were wrapped onto already-full
  /// sites (0 in a well-dimensioned configuration).
  long capacity_overflows = 0;
};

class BumpAssigner {
 public:
  explicit BumpAssigner(BumpGridConfig config = {});

  const BumpGridConfig& config() const { return config_; }

  /// Assigns every net of a *complete* floorplan and reports wirelength.
  /// Throws std::logic_error if any net endpoint is unplaced.
  WirelengthReport assign(const ChipletSystem& system,
                          const Floorplan& floorplan) const;

 private:
  BumpGridConfig config_;
};

}  // namespace rlplan::bump
