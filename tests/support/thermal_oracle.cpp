#include "support/thermal_oracle.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace rlplan::testing {

using thermal::FastThermalModel;
using thermal::kernel_distance;

/// Decaying kernel: table value minus the uniform floor, clamped >= 0.
double decay_kernel(const FastThermalModel& m, double distance_mm) {
  return std::max(m.mutual_table().lookup(distance_mm) - m.uniform_floor(),
                  0.0);
}

/// Kernel source -> probe with the first-order mirror images: the direct
/// term, 4 side mirrors, 4 corner double-mirrors, plus the uniform floor.
double image_kernel(const FastThermalModel& m, const Point& src,
                    const Point& probe) {
  const double r = m.config().image_reflectivity;
  const double mx[2] = {-src.x, 2.0 * m.package_w_mm() - src.x};
  const double my[2] = {-src.y, 2.0 * m.package_h_mm() - src.y};
  double k =
      decay_kernel(m, kernel_distance(src.x - probe.x, src.y - probe.y));
  for (double ix : mx) {
    k += r * decay_kernel(m, kernel_distance(ix - probe.x, src.y - probe.y));
  }
  for (double iy : my) {
    k += r * decay_kernel(m, kernel_distance(src.x - probe.x, iy - probe.y));
  }
  for (double ix : mx) {
    for (double iy : my) {
      k += r * r *
           decay_kernel(m, kernel_distance(ix - probe.x, iy - probe.y));
    }
  }
  return m.uniform_floor() + k;
}

namespace {

/// Rise at `probe` caused by one source die with sub-points `subs`.
double source_contribution(const FastThermalModel& m,
                           const std::vector<Point>& subs, double power_w,
                           const Point& probe, double correction) {
  double sum = 0.0;
  for (const Point& s : subs) {
    sum += m.config().use_images
               ? image_kernel(m, s, probe)
               : m.mutual_table().lookup(
                     kernel_distance(s.x - probe.x, s.y - probe.y));
  }
  sum *= power_w / static_cast<double>(subs.size());
  sum *= correction;
  return sum;
}

}  // namespace

thermal::FastThermalResult reference_evaluate(const FastThermalModel& model,
                                              const ChipletSystem& system,
                                              const Floorplan& floorplan) {
  const std::size_t n = system.num_chiplets();
  thermal::FastThermalResult result;
  result.chiplet_temp_c.assign(n, model.ambient_c());
  const std::vector<std::optional<Rect>> rects = floorplan.placed_rects();
  std::vector<std::vector<Point>> subs(n);
  std::vector<double> corr(n, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    if (!rects[j]) continue;
    model.source_points(*rects[j], subs[j]);
    corr[j] = model.center_correction(rects[j]->center());
  }
  std::vector<Point> probes;
  std::vector<double> shapes;
  for (std::size_t i = 0; i < n; ++i) {
    if (!rects[i]) continue;
    const double self = model.self_rise(system.chiplet(i), *rects[i]);
    model.receiver_probes(*rects[i], probes, shapes);
    double worst = 0.0;
    for (std::size_t p = 0; p < probes.size(); ++p) {
      double mutual = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double power = system.chiplet(j).power;
        if (j == i || !rects[j] || power <= 0.0) continue;
        mutual += source_contribution(model, subs[j], power, probes[p],
                                      model.pair_correction(corr[j], corr[i]));
      }
      worst = std::max(worst, self * shapes[p] + mutual);
    }
    result.chiplet_temp_c[i] = model.ambient_c() + worst;
  }
  result.max_temp_c = model.ambient_c();
  for (double t : result.chiplet_temp_c) {
    result.max_temp_c = std::max(result.max_temp_c, t);
  }
  return result;
}

}  // namespace rlplan::testing
