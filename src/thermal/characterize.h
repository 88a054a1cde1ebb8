// Offline characterization of the fast thermal model (Section II-C).
//
// Exactly as the paper characterizes against HotSpot, we characterize against
// GridThermalSolver:
//
//  * Self table — "setting a chiplet's power to a non-zero value and run
//    HotSpot to create a 2D self-thermal resistance table": for every (w, h)
//    on the axis grid, solve a single centered die dissipating a reference
//    power and record peak-rise-per-watt.
//
//  * Mutual table — "characterize the mutual-thermal resistance by a 1D table
//    with respect to the distance between power source and grid location":
//    solve one small reference source at the interposer center, then bin the
//    chiplet-layer temperature field by distance from the source and average
//    rise-per-watt in each bin.
//
// Tables are specific to a (layer stack, interposer size) pair; cache them
// with FastThermalModel::save/load.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "robust/robust.h"
#include "thermal/fast_model.h"
#include "thermal/grid_solver.h"
#include "thermal/layer_stack.h"

namespace rlplan::thermal {

struct CharacterizationConfig {
  GridSolverConfig solver{};
  /// Self-table axes (mm). Empty -> auto: `auto_axis_points` points spanning
  /// [min_die_mm, max_die_mm].
  std::vector<double> widths_mm{};
  std::vector<double> heights_mm{};
  double min_die_mm = 2.0;   ///< auto-axis lower bound
  double max_die_mm = 30.0;  ///< auto-axis upper bound
  std::size_t auto_axis_points = 10;
  /// Geometric (log-spaced) auto axes concentrate samples on small dies,
  /// where R_self(w, h) ~ 1/area is steeply convex and linear interpolation
  /// on a coarse grid badly overestimates.
  bool geometric_axes = true;
  double reference_power_w = 10.0;
  /// Side of the square reference source for the mutual sweep (mm).
  double mutual_source_mm = 2.0;
  /// Distance bin width for the 1D table (mm); 0 -> one grid-cell pitch.
  double mutual_bin_mm = 0.0;
  /// Number of reference-source positions for the mutual sweep: 1 = center
  /// only (a clean free-field kernel, required by the method-of-images
  /// evaluation), 5 = center + 4 quadrant offsets (averages boundary effects
  /// into the table; use with model_config.use_images = false).
  std::size_t mutual_source_positions = 1;
  /// Iterations of image-deconvolution applied to the measured kernel: the
  /// center probe's own boundary reflections contaminate the tail of the
  /// raw table; each iteration subtracts the reflections predicted by the
  /// current kernel estimate. Default 0: measurement (bench/ablation_tables)
  /// shows the raw kernel plus damped floor interacts better with the
  /// annulus-binned near field.
  int kernel_deconvolution_iters = 0;
  /// Position-correction sweep: a reference die is solved at
  /// position_points x position_points centers and the rise ratio to the
  /// centered solve becomes the C(cx, cy) factor table. 0 disables the
  /// correction (paper-minimal tables; several-K errors for edge dies).
  std::size_t position_points = 7;
  double position_ref_die_mm = 8.0;
  FastModelConfig model_config{};
  /// Cooperative stop, polled before every probe solve. A half-built table
  /// set is useless, so characterization has no best-so-far: stopping throws
  /// robust::CancelledError instead.
  robust::RunControl control{};
};

struct CharacterizationReport {
  std::size_t self_solves = 0;
  std::size_t mutual_solves = 0;
  std::size_t position_solves = 0;
  double total_seconds = 0.0;
};

class ThermalCharacterizer {
 public:
  /// `stack` must outlive the characterizer.
  ThermalCharacterizer(const LayerStack& stack,
                       CharacterizationConfig config = {});

  /// Builds a FastThermalModel for the given interposer footprint.
  /// `progress` (optional) is called after each probe solve with
  /// (done, total).
  FastThermalModel characterize(
      double interposer_w_mm, double interposer_h_mm,
      const std::function<void(std::size_t, std::size_t)>& progress = {});

  const CharacterizationReport& report() const { return report_; }

 private:
  SelfResistanceTable build_self_table(
      double iw, double ih, const std::vector<double>& widths,
      const std::vector<double>& heights,
      const std::function<void(std::size_t, std::size_t)>& progress,
      std::size_t total_probes, std::size_t probes_done);
  MutualResistanceTable build_mutual_table(double iw, double ih);
  /// One probe solve: a lone w x h die at `lower_left` on an iw x ih
  /// interposer dissipating the reference power, on a fresh cold
  /// GridThermalSolver (a warm start would make each table depend on the
  /// sweep order). Polls config_.control first, fills `field` when given,
  /// and counts the solve in `solves`.
  ThermalResult probe_solve(double iw, double ih, double w, double h,
                            Point lower_left, std::size_t& solves,
                            ThermalField* field = nullptr);
  BilinearTable2D build_position_correction(
      double iw, double ih,
      const std::function<void(std::size_t, std::size_t)>& progress,
      std::size_t total_probes);

  const LayerStack* stack_;
  CharacterizationConfig config_;
  CharacterizationReport report_;
  BilinearTable2D droop_table_;  // built alongside the self table
};

/// Helper: evenly spaced axis of `n` points over [lo, hi].
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Helper: geometrically spaced axis of `n` points over [lo, hi], lo > 0.
std::vector<double> geomspace(double lo, double hi, std::size_t n);

}  // namespace rlplan::thermal
