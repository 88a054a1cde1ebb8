#include "thermal/soa_snapshot.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "thermal/soa_kernels.h"
#include "util/timer.h"

namespace rlplan::thermal {

void SoaModelConsts::bind(const FastThermalModel& model) {
  if (model.empty()) {
    throw std::invalid_argument("SoaModelConsts: model has no tables");
  }
  pc = static_cast<std::size_t>(model.probe_count());
  const auto sub = static_cast<std::size_t>(model.config().source_subsamples);
  ss = sub * sub;
  use_images = model.config().use_images;
  img = use_images ? 9 : 1;
  const auto w9 = mirror_weights(model.config().image_reflectivity);
  std::copy(w9.begin(), w9.end(), img_w);
  floor = model.uniform_floor();
  ambient_c = model.ambient_c();
  pkg_w = model.package_w_mm();
  pkg_h = model.package_h_mm();
  mutual = model.mutual_table().view();
  // MutualResistanceTable's own constructor enforces >= 2 knots, but the
  // cap/LUT math below underflows std::size_t (0 entries) or degenerates
  // (1 entry) if a malformed table ever slips through another path —
  // validate here, before any size - 1 arithmetic.
  if (mutual.size < 2) {
    throw std::invalid_argument(
        "SoaModelConsts: mutual table needs >= 2 knots, got " +
        std::to_string(mutual.size));
  }
  if (!(mutual.inv_step > 0.0)) {
    throw std::logic_error(
        "SoaModelConsts: mutual table is not uniform-step (FastThermalModel "
        "resamples every table it is built with)");
  }
  lut_img.assign(2 * mutual.size, 0.0);
  lut_raw.assign(2 * mutual.size, 0.0);
  for (std::size_t i = 0; i < mutual.size; ++i) {
    const double diff =
        i + 1 < mutual.size ? mutual.values[i + 1] - mutual.values[i] : 0.0;
    lut_raw[2 * i] = mutual.values[i];
    lut_raw[2 * i + 1] = diff;
    lut_img[2 * i] = mutual.values[i] - floor;
    lut_img[2 * i + 1] = diff;
  }
  // Coordinates are capped in the double domain (instead of clamping the
  // integer index) so the coordinate pass stays branch-free: the cap is the
  // largest double below nk-1, making trunc() land on the last segment with
  // a fraction of ~1 — the same interpolated value to within an ulp.
  coord_cap = std::nextafter(static_cast<double>(mutual.size - 1), 0.0);
  w_flat.clear();
  if (use_images) {
    w_flat.resize(ss * 9);
    for (std::size_t s = 0; s < ss; ++s) {
      std::copy(img_w, img_w + 9, w_flat.data() + s * 9);
    }
  }
}

void SoaModelConsts::expand_source_point(const Point& s, double* xs,
                                         double* ys) const {
  if (!use_images) {
    xs[0] = s.x;
    ys[0] = s.y;
    return;
  }
  mirror_images(s, pkg_w, pkg_h, xs, ys);
}

DieTerms SoaDieLoader::load(const FastThermalModel& model,
                            const SoaModelConsts& k, const Chiplet& chip,
                            const Rect& footprint, double* probe_x,
                            double* probe_y, double* shape, double* src_x,
                            double* src_y) {
  model.receiver_probes(footprint, probes_, shapes_);
  for (std::size_t p = 0; p < k.pc; ++p) {
    probe_x[p] = probes_[p].x;
    probe_y[p] = probes_[p].y;
    shape[p] = shapes_[p];
  }
  if (src_x != nullptr) {
    model.source_points(footprint, subs_);
    for (const Point& s : subs_) {
      k.expand_source_point(s, src_x, src_y);
      src_x += k.img;
      src_y += k.img;
    }
  }
  return {model.self_rise(chip, footprint),
          model.center_correction(footprint.center())};
}

util::SimdLevel SoaSnapshot::set_simd_level(util::SimdLevel level) {
  ops_ = soa_kernel_ops(level);
  simd_level_ = soa_served_level(level);
  return simd_level_;
}

SoaSnapshot::SoaSnapshot(const FastThermalModel& model,
                         const ChipletSystem& system)
    : model_(&model), system_(&system) {
  k_.bind(model);
  n_ = system.num_chiplets();
  set_simd_level(util::active_simd_level());

  placed_.assign(n_, 0);
  self_rise_.assign(n_, 0.0);
  corr_.assign(n_, 1.0);
  probe_x_.assign(n_ * k_.pc, 0.0);
  probe_y_.assign(n_ * k_.pc, 0.0);
  shape_.assign(n_ * k_.pc, 0.0);
  src_die_.reserve(n_);
  src_scale_.reserve(n_);
  src_corr_.reserve(n_);
  src_x_.reserve(n_ * k_.ss * k_.img);
  src_y_.reserve(n_ * k_.ss * k_.img);
  pair_corr_.reserve(n_);
  sub_.reserve(n_);
}

void SoaSnapshot::refresh(const Floorplan& floorplan) {
  // Counter only: refresh runs per candidate (~µs); a span here would be
  // the dominant cost of the span itself at small die counts.
  RLPLAN_COUNTER_INC("thermal.soa.refreshes");
  if (!bound()) throw std::logic_error("SoaSnapshot: refresh while unbound");
  if (floorplan.num_chiplets() != n_) {
    throw std::invalid_argument(
        "SoaSnapshot: floorplan/system size mismatch");
  }
  const std::size_t pc = k_.pc;
  src_die_.clear();
  src_scale_.clear();
  src_corr_.clear();
  src_x_.clear();
  src_y_.clear();
  const std::size_t pts = k_.ss * k_.img;
  for (std::size_t i = 0; i < n_; ++i) {
    placed_[i] = floorplan.is_placed(i) ? 1 : 0;
    if (!placed_[i]) continue;
    const Chiplet& chip = system_->chiplet(i);
    const bool source = chip.power > 0.0;
    if (source) {
      src_x_.resize(src_x_.size() + pts);
      src_y_.resize(src_y_.size() + pts);
    }
    const DieTerms terms = loader_.load(
        *model_, k_, chip, floorplan.rect_of(i), &probe_x_[i * pc],
        &probe_y_[i * pc], &shape_[i * pc],
        source ? src_x_.data() + src_x_.size() - pts : nullptr,
        source ? src_y_.data() + src_y_.size() - pts : nullptr);
    self_rise_[i] = terms.self_rise;
    corr_[i] = terms.corr;
    if (!source) continue;
    src_die_.push_back(i);
    src_scale_.push_back(chip.power / static_cast<double>(k_.ss));
    src_corr_.push_back(terms.corr);
  }
}

double SoaSnapshot::receiver_rise(std::size_t i) const {
  const std::size_t n_src = src_die_.size();
  const std::size_t pts_per_src = k_.ss * k_.img;
  const double* sx = src_x_.data();
  const double* sy = src_y_.data();
  const double floor_per_src = static_cast<double>(k_.ss) * k_.floor;
  const double self = self_rise_[i];
  const SoaKernelOps& ops = *ops_;
  const bool use_images = k_.use_images;
  const std::size_t pc = k_.pc;
  double* sub = sub_.data();

  double worst = 0.0;
  for (std::size_t p = 0; p < pc; ++p) {
    const double px = probe_x_[i * pc + p];
    const double py = probe_y_[i * pc + p];
    // One fused sweep per probe covers every source block, so the one
    // indirect call amortizes over the probe instead of per source.
    // Self-interaction blocks are computed too (their inputs are valid, the
    // result is discarded below) — that wastes 1/n_src of the sweep, far
    // less than a branchy kernel would cost.
    if (!use_images) {
      ops.sweep_raw(sx, sy, px, py, k_.mutual.front, k_.mutual.back,
                    k_.mutual.inv_step, k_.coord_cap, k_.lut_raw.data(),
                    pts_per_src, n_src, sub);
    } else {
      ops.sweep_weighted(sx, sy, px, py, k_.mutual.front, k_.mutual.back,
                         k_.mutual.inv_step, k_.coord_cap, k_.lut_img.data(),
                         k_.w_flat.data(), pts_per_src, n_src, sub);
    }
    // Sources combine ascending, one subtotal per source: floor, then power
    // share, then pair correction — the order IncrementalThermalState
    // applies to a pair row, so its full re-sum reproduces these doubles.
    double mutual = 0.0;
    for (std::size_t a = 0; a < n_src; ++a) {
      if (src_die_[a] == i) continue;
      double m = use_images ? floor_per_src + sub[a] : sub[a];
      m *= src_scale_[a];
      m *= pair_corr_[a];
      mutual += m;
    }
    worst = std::max(worst, self * shape_[i * pc + p] + mutual);
  }
  return worst;
}

void SoaSnapshot::evaluate(FastThermalResult& out) const {
  if (!bound()) throw std::logic_error("SoaSnapshot: evaluate while unbound");
  out.chiplet_temp_c.assign(n_, k_.ambient_c);
  out.eval_seconds = 0.0;

  const std::size_t n_src = src_die_.size();
  pair_corr_.resize(n_src);
  sub_.resize(n_src);

  for (std::size_t i = 0; i < n_; ++i) {
    if (!placed_[i]) continue;
    const double c_dst = corr_[i];
    // Hoisted per receiver: the pair factor is probe-independent.
    for (std::size_t a = 0; a < n_src; ++a) {
      pair_corr_[a] = model_->pair_correction(src_corr_[a], c_dst);
    }
    out.chiplet_temp_c[i] = k_.ambient_c + receiver_rise(i);
  }

  out.max_temp_c = k_.ambient_c;
  for (double t : out.chiplet_temp_c) {
    out.max_temp_c = std::max(out.max_temp_c, t);
  }
}

FastThermalResult FastThermalModel::evaluate(const ChipletSystem& system,
                                             const Floorplan& floorplan) const {
  if (empty()) {
    throw std::logic_error("FastThermalModel: evaluate on empty model");
  }
  RLPLAN_TRACE_SPAN("thermal.evaluate");
  RLPLAN_COUNTER_INC("thermal.evaluate.calls");
  const Timer timer;
  SoaSnapshot snapshot(*this, system);
  snapshot.refresh(floorplan);
  FastThermalResult result;
  snapshot.evaluate(result);
  result.eval_seconds = timer.seconds();
  return result;
}

std::vector<FastThermalResult> FastThermalModel::evaluate_batch(
    const ChipletSystem& system, std::span<const Floorplan> floorplans,
    parallel::ThreadPool* pool) const {
  if (empty()) {
    throw std::logic_error("FastThermalModel: evaluate_batch on empty model");
  }
  RLPLAN_TRACE_SPAN("thermal.evaluate_batch",
                    static_cast<std::int64_t>(floorplans.size()));
  RLPLAN_COUNTER_ADD("thermal.batch.candidates", floorplans.size());
  std::vector<FastThermalResult> results(floorplans.size());
  if (floorplans.empty()) return results;

  const auto run_chunk = [&](SoaSnapshot& snap, std::size_t lo,
                             std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Timer timer;
      snap.refresh(floorplans[i]);
      snap.evaluate(results[i]);
      results[i].eval_seconds = timer.seconds();
    }
  };

  const std::size_t lanes =
      pool == nullptr ? 1 : std::min(pool->size() + 1, floorplans.size());
  if (lanes <= 1) {
    SoaSnapshot snapshot(*this, system);
    run_chunk(snapshot, 0, floorplans.size());
    return results;
  }
  // One snapshot per lane; lane c owns a contiguous candidate range so
  // results are index-aligned and identical for every thread count.
  // batch_lane_range never forms a b * lanes product, so the split stays
  // exact for any candidate count (the naive b*c/lanes formula overflows).
  std::vector<SoaSnapshot> snapshots(lanes, SoaSnapshot(*this, system));
  const std::size_t b = floorplans.size();
  pool->parallel_for(lanes, [&](std::size_t c) {
    const auto [lo, hi] = batch_lane_range(b, lanes, c);
    run_chunk(snapshots[c], lo, hi);
  });
  return results;
}

}  // namespace rlplan::thermal
