// Structure-of-arrays snapshot: the one whole-floorplan evaluator of the
// fast model. FastThermalModel::evaluate() runs a batch of one through it,
// evaluate_batch() a batch of many. SoaSnapshot flattens one system's
// evaluation state into contiguous arrays:
//
//   * per die: probe points, self-heating shape factors, self rise,
//     position-correction factor (refreshed in place per floorplan);
//   * per active source (placed, power > 0): the sub-source grid expanded
//     through the method-of-images mirrors, packed as flat x/y arrays with a
//     shared 9-entry weight vector [1, r, r, r, r, r^2, r^2, r^2, r^2].
//
// Per receiver probe, one call to the snapshot's kernel table
// (thermal/soa_kernels.h: scalar, AVX2 or NEON, picked at runtime via
// util/simd) sweeps every source block into a per-source subtotal; the
// subtotals then combine in ascending source order. RLPLANNER_SIMD=scalar
// forces the scalar table, and set_simd_level() overrides per snapshot for
// differential testing.
//
// Numerical contract (asserted by tests/soa_kernel_test.cpp): sources
// combine in ascending order, so no error grows with the die count. The
// mutual table is uniform-step — FastThermalModel resamples it at
// construction, and SoaModelConsts::bind rejects anything else — so the
// interpolation is the fraction form base[i] + frac * (v[i+1] - v[i]). It
// differs from MutualResistanceTable::lookup()'s division form by at most a
// couple of ulp per term; every table stays within 1e-9 C of the
// division-form reference oracle in tests/support.
//
// Lifecycle: bind once per (model, system) — sizes and powers are fixed —
// then refresh() per candidate floorplan and evaluate(). One snapshot per
// thread; FastThermalModel::evaluate_batch() owns a snapshot per worker lane
// and fans candidate chunks over the shared ThreadPool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/fast_model.h"
#include "util/simd.h"

namespace rlplan::thermal {

struct SoaKernelOps;

/// Half-open candidate range [first, second) owned by lane `c` when `b`
/// candidates split across `lanes` lanes: sizes differ by at most one, lane
/// ranges tile [0, b) exactly, and no intermediate product can overflow
/// (unlike the naive b * c / lanes split, which overflows std::size_t for
/// b > SIZE_MAX / lanes). Requires lanes >= 1 and c <= lanes.
inline std::pair<std::size_t, std::size_t> batch_lane_range(std::size_t b,
                                                            std::size_t lanes,
                                                            std::size_t c) {
  const std::size_t quotient = b / lanes;
  const std::size_t remainder = b % lanes;
  const std::size_t lo = c * quotient + (c < remainder ? c : remainder);
  return {lo, c < lanes ? lo + quotient + (c < remainder ? 1 : 0) : lo};
}

/// Bind-time model constants shared by every SoA kernel consumer —
/// SoaSnapshot's sweeps and IncrementalThermalState's pair rows: image
/// weights, the interleaved (base, diff) interpolation LUTs, the capped
/// coordinate transform, and the flat per-point weight vector. Built once
/// per model; everything here is placement-independent.
struct SoaModelConsts {
  std::size_t pc = 0;          ///< receiver probes per die
  std::size_t ss = 1;          ///< sub-sources per die
  std::size_t img = 1;         ///< image points per sub-source (9 or 1)
  bool use_images = false;
  double floor = 0.0;          ///< uniform rise floor (K/W)
  double ambient_c = 0.0;
  double pkg_w = 0.0;          ///< package extents, for the image mirrors
  double pkg_h = 0.0;
  double img_w[9] = {1.0};     ///< per-image weights (direct, sides, corners)
  /// img_w tiled ss times: the flat per-point weight vector the weighted
  /// kernels consume (empty when images are off).
  std::vector<double> w_flat;
  MutualResistanceTable::View mutual{};
  // Uniform-table interpolation LUTs, interleaved as (base, diff) pairs per
  // segment so one lookup touches one cache line: base is the value at the
  // left knot (with the decay floor pre-subtracted in the images variant),
  // diff the value change across the segment.
  std::vector<double> lut_img;  // {values[i] - floor, values[i+1]-values[i]}
  std::vector<double> lut_raw;  // {values[i], values[i+1]-values[i]}
  double coord_cap = 0.0;  ///< largest table coordinate (just under nk-1)

  /// Binds to `model` (which must outlive any use of the views). Throws
  /// std::invalid_argument when the model is empty or its mutual table has
  /// fewer than 2 knots, and std::logic_error when the mutual table is not
  /// uniform-step (FastThermalModel resamples every table it is built with,
  /// so that means a broken invariant, not bad input).
  void bind(const FastThermalModel& model);

  /// Expands one sub-source into its `img` coordinate pairs (xs/ys):
  /// mirror_images() with images on (the order of img_w), the point itself
  /// without.
  void expand_source_point(const Point& s, double* xs, double* ys) const;
};

/// Placement-dependent scalars of one placed die.
struct DieTerms {
  double self_rise = 0.0;  ///< FastThermalModel::self_rise at the footprint
  double corr = 1.0;       ///< position-correction factor at its center
};

/// The per-die loader behind SoaSnapshot::refresh and
/// IncrementalThermalState: derives a placed die's SoA blocks through the
/// model's building blocks, so both engines see the same doubles. Owns the
/// scratch those building blocks fill.
class SoaDieLoader {
 public:
  /// Writes k.pc receiver probe coordinates and shape factors to
  /// probe_x/probe_y/shape and, when src_x is non-null, the k.ss * k.img
  /// image-expanded sub-source coordinates to src_x/src_y. Returns the die's
  /// self rise and center correction.
  DieTerms load(const FastThermalModel& model, const SoaModelConsts& k,
                const Chiplet& chip, const Rect& footprint, double* probe_x,
                double* probe_y, double* shape, double* src_x, double* src_y);

 private:
  std::vector<Point> probes_;
  std::vector<double> shapes_;
  std::vector<Point> subs_;
};

class SoaSnapshot {
 public:
  SoaSnapshot() = default;
  /// Binds to `model` and `system` (both must outlive the snapshot, at
  /// stable addresses). Throws std::invalid_argument on an empty model.
  SoaSnapshot(const FastThermalModel& model, const ChipletSystem& system);

  bool bound() const { return model_ != nullptr; }
  const FastThermalModel& model() const { return *model_; }
  const ChipletSystem& system() const { return *system_; }
  std::size_t num_chiplets() const { return n_; }

  /// Rebuilds the per-floorplan arrays (placements, probe grids, self terms,
  /// image-expanded sub-sources) in place — no allocation after the first
  /// refresh of the largest placement. `floorplan` must be over the bound
  /// system.
  void refresh(const Floorplan& floorplan);

  /// Temperatures of the refreshed placement under the numerical contract
  /// above. eval_seconds is left 0 for the caller to stamp.
  void evaluate(FastThermalResult& out) const;

  /// Number of active sources (placed dies with power > 0) in the last
  /// refresh.
  std::size_t num_sources() const { return src_die_.size(); }

  /// The SIMD level of this snapshot's kernel table. New snapshots start at
  /// soa_dispatch_level() (thermal/soa_kernels.h).
  util::SimdLevel simd_level() const { return simd_level_; }

  /// Overrides the kernel table for this snapshot (differential tests,
  /// forced-scalar benches). Levels whose kernels are not compiled in or not
  /// supported by the host get the scalar table — never a different SIMD
  /// level. Returns the level actually installed.
  util::SimdLevel set_simd_level(util::SimdLevel level);

 private:
  const FastThermalModel* model_ = nullptr;
  const ChipletSystem* system_ = nullptr;

  // Bind-time constants.
  std::size_t n_ = 0;   ///< chiplets in the system
  SoaModelConsts k_{};  ///< shared model constants (LUTs, weights, cap)

  // Per-die state, refreshed per floorplan.
  std::vector<std::uint8_t> placed_;  // n
  std::vector<double> self_rise_;     // n
  std::vector<double> corr_;          // n
  std::vector<double> probe_x_;       // n * pc
  std::vector<double> probe_y_;       // n * pc
  std::vector<double> shape_;         // n * pc
  // Active sources, packed ascending by die index.
  std::vector<std::size_t> src_die_;  // die index per active source
  std::vector<double> src_scale_;     // power / ss per active source
  std::vector<double> src_corr_;      // correction factor per active source
  std::vector<double> src_x_;         // num_sources * ss * img
  std::vector<double> src_y_;         // num_sources * ss * img

  // Scratch.
  mutable std::vector<double> pair_corr_;  // per-source factor for a receiver
  mutable std::vector<double> sub_;        // per-source sweep subtotals
  SoaDieLoader loader_;

  // Kernel table (never nullptr) and the level it serves; see
  // soa_kernels.h.
  const SoaKernelOps* ops_ = nullptr;
  util::SimdLevel simd_level_ = util::SimdLevel::kScalar;

  /// Peak rise of receiver i: one kernel sweep per probe plus the
  /// ascending per-source combination.
  double receiver_rise(std::size_t i) const;
};

}  // namespace rlplan::thermal
