// Portable scalar implementation of the fused SoA kernel table (see
// soa_kernels.h for the dispatch scheme and numerical contract).
//
// Always compiled and always available: it serves kScalar,
// RLPLANNER_SIMD=scalar and every host whose SIMD table is missing. Per
// point it runs the same fused math as the AVX2/NEON tables (distance,
// coordinate, LUT interpolation, accumulate in one pass), without FMA
// contraction; per block it keeps four lane accumulators (lane k sums points
// k, k+4, ...) reduced as (l0 + l2) + (l1 + l3), then adds the tail left to
// right. CMake builds this TU with -fno-math-errno, so sqrt compiles to the
// instruction instead of an instruction plus an errno branch and libm call
// (sqrt is correctly rounded either way, so no number changes).
#include <algorithm>
#include <cmath>

#include "thermal/soa_kernels.h"

namespace rlplan::thermal {
namespace {

struct Consts {
  double px, py, front, back, inv, cap;
  // 0.0, computed at run time (cap - cap, which the compiler may not fold
  // because cap could be inf or NaN) so the image clamp max(v, zero)
  // compiles to maxsd: against a literal 0.0, GCC 12 emits a compare and a
  // branch on the data-dependent sign, about 12% slower on this kernel.
  double zero;
};

inline Consts make_consts(double px, double py, double front, double back,
                          double inv_step, double cap) {
  return {px, py, front, back, inv_step, cap, cap - cap};
}

/// Interpolated table value for one source point.
inline double point_value(double sx, double sy, const Consts& c,
                          const double* lut) {
  const double dx = sx - c.px;
  const double dy = sy - c.py;
  const double d = std::sqrt(dx * dx + dy * dy);
  const double x =
      std::min((std::min(std::max(d, c.front), c.back) - c.front) * c.inv,
               c.cap);
  const int ii = static_cast<int>(x);
  const double* seg = lut + 2 * ii;
  return seg[0] + (x - static_cast<double>(ii)) * seg[1];
}

/// One block's subtotal — the routine both the sweep and the pair-row forms
/// run, which is what makes a pair row equal its sweep subtotal bit for bit.
template <bool kWeighted>
double block(const double* sx, const double* sy, const Consts& c,
             const double* lut, const double* w, std::size_t n) {
  const auto term = [&](std::size_t k) {
    const double v = point_value(sx[k], sy[k], c, lut);
    if constexpr (kWeighted) {
      return w[k] * std::max(v, c.zero);
    } else {
      return v;
    }
  };
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    l0 += term(k);
    l1 += term(k + 1);
    l2 += term(k + 2);
    l3 += term(k + 3);
  }
  double r = (l0 + l2) + (l1 + l3);
  for (; k < n; ++k) r += term(k);
  return r;
}

void sweep_weighted_scalar(const double* sx, const double* sy, double px,
                           double py, double front, double back,
                           double inv_step, double cap, const double* lut,
                           const double* w, std::size_t pts_per_src,
                           std::size_t n_src, double* subtotal) {
  const Consts c = make_consts(px, py, front, back, inv_step, cap);
  for (std::size_t a = 0; a < n_src; ++a) {
    const std::size_t base = a * pts_per_src;
    subtotal[a] = block<true>(sx + base, sy + base, c, lut, w, pts_per_src);
  }
}

void sweep_raw_scalar(const double* sx, const double* sy, double px, double py,
                      double front, double back, double inv_step, double cap,
                      const double* lut, std::size_t pts_per_src,
                      std::size_t n_src, double* subtotal) {
  const Consts c = make_consts(px, py, front, back, inv_step, cap);
  for (std::size_t a = 0; a < n_src; ++a) {
    const std::size_t base = a * pts_per_src;
    subtotal[a] =
        block<false>(sx + base, sy + base, c, lut, nullptr, pts_per_src);
  }
}

void pair_weighted_scalar(const double* px, const double* py,
                          std::size_t n_probes, const double* sx,
                          const double* sy, std::size_t pts, double front,
                          double back, double inv_step, double cap,
                          const double* lut, const double* w, double* out) {
  for (std::size_t p = 0; p < n_probes; ++p) {
    const Consts c = make_consts(px[p], py[p], front, back, inv_step, cap);
    out[p] = block<true>(sx, sy, c, lut, w, pts);
  }
}

void pair_raw_scalar(const double* px, const double* py, std::size_t n_probes,
                     const double* sx, const double* sy, std::size_t pts,
                     double front, double back, double inv_step, double cap,
                     const double* lut, double* out) {
  for (std::size_t p = 0; p < n_probes; ++p) {
    const Consts c = make_consts(px[p], py[p], front, back, inv_step, cap);
    out[p] = block<false>(sx, sy, c, lut, nullptr, pts);
  }
}

constexpr SoaKernelOps kScalarOps{sweep_weighted_scalar, sweep_raw_scalar,
                                  pair_weighted_scalar, pair_raw_scalar};

}  // namespace

const SoaKernelOps* soa_kernel_ops_scalar() { return &kScalarOps; }

}  // namespace rlplan::thermal
