#include "thermal/soa_kernels.h"

namespace rlplan::thermal {

namespace {

const SoaKernelOps* simd_table(util::SimdLevel level) {
  switch (level) {
    case util::SimdLevel::kAvx2:
      // The AVX2 TU is compiled into every x86-64 binary; gate on the
      // runtime cpuid so forcing RLPLANNER_SIMD=avx2 on an SSE2-only host
      // degrades to scalar instead of faulting on the first vector op.
      return util::detected_simd_level() == util::SimdLevel::kAvx2
                 ? soa_kernel_ops_avx2()
                 : nullptr;
    case util::SimdLevel::kNeon:
      // NEON is baseline on AArch64 — the TU itself is the stub elsewhere.
      return soa_kernel_ops_neon();
    case util::SimdLevel::kScalar:
      break;
  }
  return nullptr;
}

}  // namespace

const SoaKernelOps* soa_kernel_ops(util::SimdLevel level) {
  const SoaKernelOps* ops = simd_table(level);
  return ops != nullptr ? ops : soa_kernel_ops_scalar();
}

util::SimdLevel soa_served_level(util::SimdLevel level) {
  return simd_table(level) != nullptr ? level : util::SimdLevel::kScalar;
}

util::SimdLevel soa_dispatch_level() {
  return soa_served_level(util::active_simd_level());
}

}  // namespace rlplan::thermal
