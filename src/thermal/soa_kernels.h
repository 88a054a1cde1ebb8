// The fast model's mutual-coupling kernel: one function-pointer table per
// SIMD level, selected at runtime via util/simd. These tables are the only
// implementation of the mutual term R_mut(d) * P in the library — the batch
// snapshot (SoaSnapshot, which also serves FastThermalModel::evaluate()) and
// the incremental engine (IncrementalThermalState) both call through them.
//
// Every table fuses the two conceptual passes — distance -> capped table
// coordinate -> segment index + fraction, then segment-LUT interpolate /
// accumulate — into ONE sweep per source block, so the index/fraction
// intermediates never round-trip through memory.
//
// Three tables exist:
//  * scalar (soa_kernels_scalar.cpp) — portable C++, always available; it is
//    what kScalar, RLPLANNER_SIMD=scalar and hosts without AVX2/NEON run.
//    Built with -fno-math-errno so sqrt compiles to the instruction.
//  * AVX2 + FMA (soa_kernels_avx2.cpp, per-file -mavx2 -mfma on x86-64).
//  * NEON (soa_kernels_neon.cpp, AArch64 baseline).
// On foreign architectures the AVX2/NEON TUs compile to stubs returning
// nullptr, and soa_kernel_ops() serves the scalar table in their place.
//
// Numerical contract (gated by tests/soa_kernel_test.cpp):
//  * within one table, the sweep and pair-row forms share one block routine,
//    so a pair row equals the matching sweep subtotal BIT FOR BIT — which is
//    what makes the incremental engine's full re-sum equal to the batch
//    result at every level.
//  * each block reduces in a fixed lane tree: in the scalar and AVX2 tables
//    lane k sums points k, k+4, k+8, ... and the subtotal is
//    (l0 + l2) + (l1 + l3); NEON keeps two lanes, l0 + l1. The tail points
//    then add left to right. Identical for every run and thread count.
//  * across tables, results differ only by FMA contraction (distance square,
//    interpolation, weighting) and lane grouping: ulp-level per term,
//    asserted within the repo-wide 1e-9 C bar.
//  * blocks combine per SOURCE in ascending order (one subtotal per source
//    block, summed by the caller), so error does not grow with die count.
#pragma once

#include <cstddef>

#include "util/simd.h"

namespace rlplan::thermal {

/// Function-pointer table for one SIMD level. Shared per-point math:
/// d = sqrt((sx[k]-px)^2 + (sy[k]-py)^2);
/// x = min((clamp(d, front, back) - front) * inv_step, cap);
/// (base, diff) = lut[2*trunc(x)], lut[2*trunc(x)+1]; v = base +
/// (x - trunc(x)) * diff. All lengths are in points; buffers may be
/// unaligned (std::vector storage).
struct SoaKernelOps {
  // Sweep forms: one probe against `n_src` source blocks of `pts_per_src`
  // points each; subtotal[a] covers points [a*pts_per_src, (a+1)*pts_per_src)
  // of sx/sy. One indirect call covers a whole probe.

  /// Images: subtotal[a] = sum of w[t]*max(v, 0), where w holds ONE block's
  /// weights (pts_per_src entries) reused for every source block.
  void (*sweep_weighted)(const double* sx, const double* sy, double px,
                         double py, double front, double back, double inv_step,
                         double cap, const double* lut, const double* w,
                         std::size_t pts_per_src, std::size_t n_src,
                         double* subtotal);
  /// No images: subtotal[a] = sum of v (no floor, no clamp to zero).
  void (*sweep_raw)(const double* sx, const double* sy, double px, double py,
                    double front, double back, double inv_step, double cap,
                    const double* lut, std::size_t pts_per_src,
                    std::size_t n_src, double* subtotal);

  // Pair-row forms: the transpose — one `pts`-point source block against
  // `n_probes` probes; out[p] is the subtotal the matching sweep form
  // produces for (probe p, that block), bit for bit. One call covers one
  // (receiver, source) coupling row, the incremental engine's unit of work.

  /// Images (w holds `pts` entries): out[p] = sum of w[k]*max(v, 0).
  void (*pair_weighted)(const double* px, const double* py,
                        std::size_t n_probes, const double* sx,
                        const double* sy, std::size_t pts, double front,
                        double back, double inv_step, double cap,
                        const double* lut, const double* w, double* out);
  /// No images: out[p] = sum of v over the block.
  void (*pair_raw)(const double* px, const double* py, std::size_t n_probes,
                   const double* sx, const double* sy, std::size_t pts,
                   double front, double back, double inv_step, double cap,
                   const double* lut, double* out);
};

/// The table for `level`; never nullptr. A level whose kernels are not
/// compiled in or not supported by the host gets the scalar table — never a
/// different SIMD flavour.
const SoaKernelOps* soa_kernel_ops(util::SimdLevel level);

/// The level `level` actually runs at: itself when its table is available,
/// kScalar otherwise.
util::SimdLevel soa_served_level(util::SimdLevel level);

/// soa_served_level(util::active_simd_level()) — the process-wide dispatch
/// choice with unavailable levels collapsed to kScalar. This is the value
/// benches publish.
util::SimdLevel soa_dispatch_level();

// Per-ISA tables (defined in their own TUs; the SIMD ones are nullptr when
// unavailable on this architecture).
const SoaKernelOps* soa_kernel_ops_scalar();
const SoaKernelOps* soa_kernel_ops_avx2();
const SoaKernelOps* soa_kernel_ops_neon();

}  // namespace rlplan::thermal
