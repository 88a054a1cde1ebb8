// Test-side references for the fast thermal model.
//
//  * reference_evaluate() — the fast model's formula written out the
//    direct way, independent of the SoA kernel tables: per (receiver probe,
//    source sub-point) it looks the mutual table up in division form
//    (MutualResistanceTable::lookup), mirrors every source point across the
//    package edges one image at a time, and sums sources in ascending die
//    order. Every kernel table stays within 1e-9 C of it
//    (tests/soa_kernel_test.cpp), which is what ties the tables to the
//    formula rather than only to each other.
//  * EvaluateOnlyEvaluator — a ThermalEvaluator that answers every query
//    with FastThermalModel::evaluate() and has no incremental state: the
//    non-incremental side of the evaluator-level comparisons.
//  * runnable_simd_levels() — the kernel-table levels this host can run,
//    for invariants asserted at every level.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/evaluator.h"
#include "thermal/fast_model.h"
#include "thermal/soa_kernels.h"
#include "util/simd.h"

namespace rlplan::testing {

/// Decaying kernel: table value minus the uniform floor, clamped >= 0.
double decay_kernel(const thermal::FastThermalModel& m, double distance_mm);

/// Kernel source -> probe written out image by image: the direct term, 4
/// side mirrors, 4 corner double-mirrors, plus the uniform floor.
double image_kernel(const thermal::FastThermalModel& m, const Point& src,
                    const Point& probe);

/// Temperatures of `floorplan` by the direct formula (see above);
/// eval_seconds is 0.
thermal::FastThermalResult reference_evaluate(
    const thermal::FastThermalModel& model, const ChipletSystem& system,
    const Floorplan& floorplan);

/// Scalar always, plus the SIMD levels the build and the CPU provide.
inline std::vector<util::SimdLevel> runnable_simd_levels() {
  std::vector<util::SimdLevel> levels{util::SimdLevel::kScalar};
  for (const auto level : {util::SimdLevel::kAvx2, util::SimdLevel::kNeon}) {
    if (thermal::soa_served_level(level) == level) levels.push_back(level);
  }
  return levels;
}

class EvaluateOnlyEvaluator final : public thermal::ThermalEvaluator {
 public:
  explicit EvaluateOnlyEvaluator(thermal::FastThermalModel model)
      : model_(std::move(model)) {}
  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    ++count_;
    return model_.evaluate(system, floorplan).max_temp_c;
  }
  long num_evaluations() const override { return count_; }
  std::string name() const override { return "fast-model-evaluate"; }
  std::unique_ptr<ThermalEvaluator> clone() const override {
    return std::make_unique<EvaluateOnlyEvaluator>(model_);
  }

 private:
  thermal::FastThermalModel model_;
  long count_ = 0;
};

}  // namespace rlplan::testing
