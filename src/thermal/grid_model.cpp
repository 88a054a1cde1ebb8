#include "thermal/grid_model.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rlplan::thermal {

namespace {
constexpr double kMmToM = 1e-3;
}

ThermalGridModel::ThermalGridModel(const LayerStack& stack,
                                   const ChipletSystem& system, GridDims dims)
    : stack_(&stack),
      system_(&system),
      dims_(dims),
      grid_(system.interposer_width(), system.interposer_height(), dims.rows,
            dims.cols) {
  stack.validate();
  if (dims_.rows < 2 || dims_.cols < 2) {
    throw std::invalid_argument("ThermalGridModel: grid must be >= 2x2");
  }
  dx_ = system.interposer_width() * kMmToM / static_cast<double>(dims_.cols);
  dy_ = system.interposer_height() * kMmToM / static_cast<double>(dims_.rows);
  cell_area_ = dx_ * dy_;
}

std::vector<double> ThermalGridModel::chiplet_layer_conductivity(
    const Floorplan& floorplan) const {
  const double k_die = stack_->layer(stack_->chiplet_layer_index())
                           .material.conductivity;
  const double k_fill = stack_->fill_material().conductivity;
  std::vector<double> k(dims_.cells(), k_fill);

  for (std::size_t i = 0; i < system_->num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) continue;
    grid_.for_each_covered(
        floorplan.rect_of(i), [&](std::size_t row, std::size_t col, double f) {
          const std::size_t idx = row * dims_.cols + col;
          // Blend toward die conductivity; overlapping chiplets (illegal but
          // representable) saturate at the die value.
          k[idx] = std::min(k_die, k[idx] + f * (k_die - k_fill));
        });
  }
  return k;
}

SparseMatrix ThermalGridModel::build_conductance(
    const Floorplan& floorplan) const {
  const std::size_t n_layers = stack_->num_layers();
  const std::size_t cells = dims_.cells();
  SparseMatrix g(n_layers * cells);

  const std::size_t chiplet_layer = stack_->chiplet_layer_index();
  const std::vector<double> k_chiplet = chiplet_layer_conductivity(floorplan);

  // Per-layer, per-cell conductivity accessor.
  const auto cell_k = [&](std::size_t layer, std::size_t cell_idx) {
    if (layer == chiplet_layer) return k_chiplet[cell_idx];
    return stack_->layer(layer).material.conductivity;
  };

  for (std::size_t l = 0; l < n_layers; ++l) {
    const double t = stack_->layer(l).thickness;
    for (std::size_t r = 0; r < dims_.rows; ++r) {
      for (std::size_t c = 0; c < dims_.cols; ++c) {
        const std::size_t idx = r * dims_.cols + c;
        const double k_here = cell_k(l, idx);

        // Lateral east neighbour: two half-cell resistances in series.
        if (c + 1 < dims_.cols) {
          const double k_east = cell_k(l, idx + 1);
          const double r_half_here = (dx_ / 2.0) / (k_here * t * dy_);
          const double r_half_east = (dx_ / 2.0) / (k_east * t * dy_);
          g.stamp_conductance(node(l, r, c), node(l, r, c + 1),
                              1.0 / (r_half_here + r_half_east));
        }
        // Lateral north neighbour.
        if (r + 1 < dims_.rows) {
          const double k_north = cell_k(l, idx + dims_.cols);
          const double r_half_here = (dy_ / 2.0) / (k_here * t * dx_);
          const double r_half_north = (dy_ / 2.0) / (k_north * t * dx_);
          g.stamp_conductance(node(l, r, c), node(l, r + 1, c),
                              1.0 / (r_half_here + r_half_north));
        }
        // Vertical neighbour (layer above): half-thickness each side.
        if (l + 1 < n_layers) {
          const double t_up = stack_->layer(l + 1).thickness;
          const double k_up = cell_k(l + 1, idx);
          const double r_half_here = (t / 2.0) / (k_here * cell_area_);
          const double r_half_up = (t_up / 2.0) / (k_up * cell_area_);
          g.stamp_conductance(node(l, r, c), node(l + 1, r, c),
                              1.0 / (r_half_here + r_half_up));
        }
        // Boundary terms: top convection, bottom board leakage. Each is the
        // series of the half-cell vertical conduction and the surface film.
        if (l + 1 == n_layers) {
          const double r_half = (t / 2.0) / (k_here * cell_area_);
          const double r_film = 1.0 / (stack_->h_top() * cell_area_);
          g.stamp_ground(node(l, r, c), 1.0 / (r_half + r_film));
        }
        if (l == 0 && stack_->h_bottom() > 0.0) {
          const double r_half = (t / 2.0) / (k_here * cell_area_);
          const double r_film = 1.0 / (stack_->h_bottom() * cell_area_);
          g.stamp_ground(node(l, r, c), 1.0 / (r_half + r_film));
        }
      }
    }
  }

  g.finalize();
  return g;
}

std::vector<double> ThermalGridModel::build_power(
    const Floorplan& floorplan) const {
  std::vector<double> p(num_nodes(), 0.0);
  const std::size_t chiplet_layer = stack_->chiplet_layer_index();
  const double cell_area_mm2 = grid_.cell_w() * grid_.cell_h();

  std::vector<std::pair<std::size_t, double>> contributions;
  for (std::size_t i = 0; i < system_->num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) continue;
    const Chiplet& chip = system_->chiplet(i);
    if (chip.power <= 0.0) continue;
    const Rect r = floorplan.rect_of(i);

    contributions.clear();
    double injected = 0.0;
    grid_.for_each_covered(
        r, [&](std::size_t row, std::size_t col, double f) {
          const double covered_mm2 = f * cell_area_mm2;
          const double watts = chip.power * covered_mm2 / r.area();
          contributions.emplace_back(node(chiplet_layer, row, col), watts);
          injected += watts;
        });
    // Clipping at interposer edges can drop a sliver of footprint; rescale so
    // total injected power is exact (conservation matters for accuracy).
    const double scale =
        injected > 0.0 ? chip.power / injected : 0.0;
    for (const auto& [idx, watts] : contributions) {
      p[idx] += watts * scale;
    }
  }
  return p;
}

}  // namespace rlplan::thermal
