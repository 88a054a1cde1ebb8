#include "thermal/grid_solver.h"

#include <algorithm>

#include "obs/metrics.h"
#include "robust/fault.h"
#include "util/log.h"
#include "util/timer.h"

namespace rlplan::thermal {

ThermalField::ThermalField(std::size_t layers, GridDims dims,
                           std::vector<double> temps_c)
    : layers_(layers), dims_(dims), temps_c_(std::move(temps_c)) {}

GridThermalSolver::GridThermalSolver(const LayerStack& stack,
                                     GridSolverConfig config)
    : stack_(&stack), config_(config) {
  stack.validate();
}

ThermalResult GridThermalSolver::solve(const ChipletSystem& system,
                                       const Floorplan& floorplan) {
  return solve_impl(system, floorplan, nullptr);
}

ThermalResult GridThermalSolver::solve_with_field(const ChipletSystem& system,
                                                  const Floorplan& floorplan,
                                                  ThermalField& field_out) {
  return solve_impl(system, floorplan, &field_out);
}

ThermalResult GridThermalSolver::solve_impl(const ChipletSystem& system,
                                            const Floorplan& floorplan,
                                            ThermalField* field_out) {
  const Timer timer;
  ThermalGridModel model(*stack_, system, config_.dims);
  const SparseMatrix g = model.build_conductance(floorplan);
  const std::vector<double> p = model.build_power(floorplan);

  std::vector<double> dt(model.num_nodes(), 0.0);
  if (config_.warm_start && last_solution_.size() == dt.size()) {
    dt = last_solution_;
  }

  ThermalResult result;
  result.cg = conjugate_gradient(g, p, dt, config_.cg);
  ++num_solves_;
  if (robust::fault_point("solver_diverge")) result.cg.converged = false;
  if (!result.cg.converged) {
    // Graceful degradation: retry once from a cold start (the warm-start
    // iterate may be the problem) with a 4x iteration budget, and report the
    // residual instead of silently returning a garbage field. The fault site
    // above only flips the flag, so under injection this path re-derives the
    // same converged solution from zero.
    RLPLAN_COUNTER_INC("thermal.cg_fallbacks");
    std::fill(dt.begin(), dt.end(), 0.0);
    CgOptions fallback = config_.cg;
    fallback.max_iterations *= 4;
    result.cg = conjugate_gradient(g, p, dt, fallback);
    ++num_solves_;
    ++result.fallback_resolves;
    if (!result.cg.converged) {
      result.degraded = true;
      RLPLAN_COUNTER_INC("robust.degraded");
      RLPLAN_WARN << "grid solver: CG failed to converge after fallback "
                  << "(relative residual " << result.cg.relative_residual
                  << " after " << result.cg.iterations << " iterations)";
    }
  }
  if (config_.warm_start) last_solution_ = dt;

  const double ambient = stack_->ambient_c();
  std::vector<double> temps_c(dt.size());
  for (std::size_t i = 0; i < dt.size(); ++i) temps_c[i] = ambient + dt[i];

  const ThermalField field(stack_->num_layers(), config_.dims,
                           std::move(temps_c));
  const std::size_t chiplet_layer = stack_->chiplet_layer_index();
  result.chiplet_temp_c =
      chiplet_peak_temps(field, model, system, floorplan, chiplet_layer);

  result.max_temp_c = ambient;
  for (double t : result.chiplet_temp_c) {
    result.max_temp_c = std::max(result.max_temp_c, t);
  }
  result.solve_seconds = timer.seconds();
  if (field_out != nullptr) *field_out = field;
  return result;
}

std::vector<double> chiplet_peak_temps(const ThermalField& field,
                                       const ThermalGridModel& model,
                                       const ChipletSystem& system,
                                       const Floorplan& floorplan,
                                       std::size_t chiplet_layer) {
  const UniformGrid& grid = model.grid();
  std::vector<double> temps(system.num_chiplets(), 0.0);
  for (std::size_t i = 0; i < system.num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) {
      temps[i] = field.at(chiplet_layer, 0, 0);  // ~ambient baseline
      continue;
    }
    const Rect r = floorplan.rect_of(i);
    double peak = -1e300;
    bool found = false;
    grid.for_each_covered(r, [&](std::size_t row, std::size_t col, double f) {
      if (f < 0.5) return;
      peak = std::max(peak, field.at(chiplet_layer, row, col));
      found = true;
    });
    if (!found) {
      // Footprint smaller than one cell: take the cell containing the center.
      const GridCell c = grid.cell_of(r.center());
      peak = field.at(chiplet_layer, c.row, c.col);
    }
    temps[i] = peak;
  }
  return temps;
}

}  // namespace rlplan::thermal
