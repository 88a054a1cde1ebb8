// Grid discretization of the 2.5D package into a thermal RC network.
//
// Mirrors the HotSpot grid model [Huang et al., TVLSI'06]: every layer of the
// stack is discretized into rows x cols cells over the interposer footprint;
// adjacent cells exchange heat through lateral conductances, stacked cells
// through vertical conductances, and boundary cells leak to ambient through
// convection terms. Steady state: solve G * dT = P, temperatures relative to
// ambient.
//
// The chiplet layer is laterally heterogeneous: a cell's conductivity blends
// die material and fill material by footprint coverage fraction, which is
// what makes the problem placement-dependent (and the fast model an
// approximation).
#pragma once

#include <cstddef>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "core/geometry.h"
#include "thermal/layer_stack.h"
#include "thermal/sparse.h"

namespace rlplan::thermal {

struct GridDims {
  std::size_t rows = 48;
  std::size_t cols = 48;

  std::size_t cells() const { return rows * cols; }
};

/// Assembles the conductance matrix and power vector for one placement.
class ThermalGridModel {
 public:
  /// `stack` and `system` must outlive the model.
  ThermalGridModel(const LayerStack& stack, const ChipletSystem& system,
                   GridDims dims);

  GridDims dims() const { return dims_; }
  std::size_t num_layers() const { return stack_->num_layers(); }
  std::size_t num_nodes() const { return num_layers() * dims_.cells(); }

  /// Node index of cell (row, col) in layer `layer`.
  std::size_t node(std::size_t layer, std::size_t row, std::size_t col) const {
    return layer * dims_.cells() + row * dims_.cols + col;
  }

  /// Cell pitch in metres.
  double dx() const { return dx_; }
  double dy() const { return dy_; }

  /// The cell raster over the interposer in millimetres (floorplan units).
  const UniformGrid& grid() const { return grid_; }

  /// Builds the finalized conductance matrix for the given placement.
  /// Unplaced chiplets contribute neither conductivity nor power.
  SparseMatrix build_conductance(const Floorplan& floorplan) const;

  /// Power injection vector (W per node) in the chiplet layer.
  std::vector<double> build_power(const Floorplan& floorplan) const;

  /// Effective conductivity of each chiplet-layer cell for the placement
  /// (coverage-weighted blend of die and fill conductivity). Exposed for
  /// tests and diagnostics.
  std::vector<double> chiplet_layer_conductivity(
      const Floorplan& floorplan) const;

 private:
  const LayerStack* stack_;
  const ChipletSystem* system_;
  GridDims dims_;
  UniformGrid grid_;
  double dx_ = 0.0;  // m
  double dy_ = 0.0;  // m
  double cell_area_ = 0.0;  // m^2
};

}  // namespace rlplan::thermal
