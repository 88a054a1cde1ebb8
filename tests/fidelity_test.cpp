// Fidelity ratchet: a smoke-sized Table II pass (bench/table2_thermal_
// accuracy at --samples=60 --grid=32 --seed=1) — the fast model against the
// ground-truth grid solver on 60 synthetic systems. RMSE and MAE may not
// get worse than the recorded envelope; when a change improves them,
// tighten the envelope to the new figures (rounded up in the 4th decimal).
// Never loosen it: a larger error means the fast path stopped computing the
// model it claims to.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "systems/synthetic.h"
#include "thermal/characterize.h"
#include "thermal/grid_solver.h"
#include "util/rng.h"
#include "util/stats.h"

namespace rlplan::thermal {
namespace {

// Recorded on a 4-vCPU AVX2 Xeon, Release, GCC 12: RMSE 1.849032 K and
// MAE 1.367756 K, identical to six decimals before and after evaluate()
// moved onto the SoA kernel tables.
constexpr double kMaxRmseK = 1.8491;
constexpr double kMaxMaeK = 1.3678;

TEST(Fidelity, Table2SmokeNoWorseThanRecorded) {
  constexpr int kSamples = 60;
  constexpr std::uint64_t kSeed = 1;
  const GridDims dims{32, 32};
  const auto stack = LayerStack::default_2p5d();
  const systems::SyntheticConfig sc;  // the Table II dataset shape
  const systems::SyntheticSystemGenerator gen(sc);

  CharacterizationConfig cc;
  cc.solver.dims = dims;
  ThermalCharacterizer charac(stack, cc);
  const FastThermalModel model =
      charac.characterize(sc.interposer_w_mm, sc.interposer_h_mm);

  GridThermalSolver solver(stack, {.dims = dims});
  std::vector<double> pred, ref;
  for (int i = 0; i < kSamples; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    const auto sys = gen.generate(kSeed * 1000003 + k);
    Rng rng(kSeed * 7919 + k);
    const auto fp = systems::random_legal_floorplan(sys, rng);
    ref.push_back(solver.solve(sys, fp).max_temp_c);
    pred.push_back(model.evaluate(sys, fp).max_temp_c);
  }
  const auto m = ErrorMetrics::compute(pred, ref);
  std::printf("[fidelity] RMSE %.6f K (envelope %.4f), MAE %.6f K "
              "(envelope %.4f)\n",
              m.rmse, kMaxRmseK, m.mae, kMaxMaeK);
  EXPECT_LE(m.rmse, kMaxRmseK);
  EXPECT_LE(m.mae, kMaxMaeK);
}

}  // namespace
}  // namespace rlplan::thermal
