// Differential fuzzing for the SoA kernel tables: over >= 1000 random
// (system, floorplan) cases spanning the synthetic generator families and
// every FastModelConfig variant, the snapshot evaluator (which also serves
// FastThermalModel::evaluate()) must agree with the direct-formula reference
// oracle (tests/support/thermal_oracle.h) and with IncrementalThermalState.
//
// Numerical contract under test (documented in soa_kernels.h,
// soa_snapshot.h and incremental.h):
//  * in every kernel table, a pair row equals the matching sweep subtotal —
//    BIT-EXACT (one block routine serves both forms).
//  * forced-scalar incremental (full re-sum) vs forced-scalar snapshot —
//    BIT-EXACT.
//  * evaluate() vs evaluate_batch() and a snapshot at the dispatched level —
//    BIT-EXACT (evaluate() is a batch of one).
//  * every table (scalar, dispatched) vs the oracle, dispatched vs scalar,
//    and the patched-sum incremental query vs the oracle — within kTempTolC
//    (1e-9 C, the repo-wide equivalence bar). Tables interpolate in
//    fraction form (base + frac * diff) where the oracle divides, and the
//    SIMD tables contract with FMA: a <= ~2 ulp per-term difference;
//    observed differences are ~1e-13 C.
//  * SoA serial vs SoA fanned over a ThreadPool — BIT-EXACT (chunking never
//    changes per-candidate arithmetic).
//
// Nightly long-fuzz hooks: RLPLANNER_FUZZ_SCALE multiplies the case count
// (CI's schedule job runs 20x under ASan); on a mismatch the failing case's
// reproduction seed is appended to $RLPLANNER_FUZZ_FAILURE_FILE so CI can
// upload it as an artifact.
#include "thermal/soa_snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/floorplan.h"
#include "fuzz_util.h"
#include "parallel/thread_pool.h"
#include "support/thermal_oracle.h"
#include "systems/synthetic.h"
#include "thermal/evaluator.h"
#include "thermal/incremental.h"
#include "thermal/soa_kernels.h"
#include "util/rng.h"

namespace rlplan::thermal {
namespace {

using rlplan::testing::EvaluateOnlyEvaluator;
using rlplan::testing::fuzz_scale;
using rlplan::testing::reference_evaluate;
using rlplan::testing::runnable_simd_levels;

constexpr double kInterposer = 60.0;
constexpr double kTempTolC = 1e-9;

void report_failure_seed(const std::string& context) {
  rlplan::testing::report_failure_seed("soa_kernel_test", context);
}

// Characterization-free analytic model (same construction family as
// incremental_thermal_test) so each reference evaluation costs microseconds.
FastThermalModel make_model(const FastModelConfig& config,
                            bool with_correction, bool with_droop) {
  std::vector<double> dims;
  for (double d = 2.0; d <= 22.0; d += 4.0) dims.push_back(d);
  std::vector<std::vector<double>> self_vals(dims.size(),
                                             std::vector<double>(dims.size()));
  std::vector<std::vector<double>> droop_vals(
      dims.size(), std::vector<double>(dims.size()));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (std::size_t j = 0; j < dims.size(); ++j) {
      self_vals[i][j] = 3.0 / (1.0 + 0.04 * dims[i] * dims[j]);
      droop_vals[i][j] = 0.55 + 0.002 * (dims[i] + dims[j]);
    }
  }
  const double floor = 0.02;
  std::vector<double> distances, mutual_vals;
  for (double d = 0.0; d <= 90.0; d += 1.5) {
    distances.push_back(d);
    mutual_vals.push_back(floor + 0.8 * std::exp(-d / 8.0));
  }
  FastThermalModel model(SelfResistanceTable(dims, dims, self_vals),
                         MutualResistanceTable(distances, mutual_vals), 45.0,
                         config);
  model.set_image_params(kInterposer, kInterposer, floor);
  if (with_droop) {
    model.set_self_droop(BilinearTable2D(dims, dims, droop_vals));
  }
  if (with_correction) {
    std::vector<double> axis{0.0, kInterposer / 2.0, kInterposer};
    std::vector<std::vector<double>> corr{
        {1.3, 1.2, 1.3}, {1.2, 1.0, 1.2}, {1.3, 1.2, 1.3}};
    model.set_position_correction(BilinearTable2D(axis, axis, corr));
  }
  return model;
}

struct Variant {
  const char* name;
  FastModelConfig config;
  bool correction;
  bool droop;
};

std::vector<Variant> variants() {
  std::vector<Variant> v;
  v.push_back({"images+droop", FastModelConfig{}, false, true});
  FastModelConfig plain;
  plain.use_images = false;
  v.push_back({"plain", plain, false, false});
  FastModelConfig corrected;
  corrected.use_images = false;
  corrected.correct_mutual = true;
  v.push_back({"correction", corrected, true, true});
  FastModelConfig damped;
  damped.use_images = true;
  damped.source_subsamples = 1;
  damped.receiver_probes = 1;
  damped.image_reflectivity = 0.6;  // non-unit weights: the weighted loop
  v.push_back({"single-probe-damped", damped, false, false});
  return v;
}

/// Random fuzz system: alternates between the free-form generator and the
/// structured family generator so sliver aspects, skewed power maps, and
/// every netlist topology feed the kernel.
ChipletSystem random_system(Rng& rng) {
  if (rng.uniform() < 0.5) {
    systems::SyntheticConfig sc;
    sc.min_chiplets = 2;
    sc.max_chiplets = 9;
    sc.interposer_w_mm = kInterposer;
    sc.interposer_h_mm = kInterposer;
    return systems::SyntheticSystemGenerator(sc).generate(rng.next(), "fuzz");
  }
  systems::FamilyConfig fc;
  fc.chiplets = 2 + rng.uniform_int(std::uint64_t{9});
  fc.interposer_w_mm = kInterposer;
  fc.interposer_h_mm = kInterposer;
  fc.max_aspect = rng.uniform() < 0.3 ? 3.0 : 1.0;
  fc.power_skew = rng.uniform() < 0.3 ? 2.0 : 0.0;
  const systems::NetTopology topologies[] = {
      systems::NetTopology::kRandom, systems::NetTopology::kStar,
      systems::NetTopology::kChain,  systems::NetTopology::kRing,
      systems::NetTopology::kMesh,   systems::NetTopology::kBipartite};
  fc.topology = topologies[rng.uniform_int(std::uint64_t{6})];
  return systems::generate_family(fc, rng.next(), "fuzz-family");
}

/// Random placement state: any in-bounds position is a valid thermal input
/// (overlaps included); ~20% of dies stay unplaced to cover partial
/// episodes.
Floorplan random_floorplan(const ChipletSystem& sys, Rng& rng) {
  Floorplan fp(sys);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    if (rng.uniform() < 0.2) continue;
    const bool rotated = rng.uniform() < 0.3;
    const Chiplet& c = sys.chiplet(i);
    const double w = rotated ? c.height : c.width;
    const double h = rotated ? c.width : c.height;
    fp.place(i,
             {rng.uniform(0.0, kInterposer - w),
              rng.uniform(0.0, kInterposer - h)},
             rotated);
  }
  return fp;
}

/// One differential case: forced-scalar incremental (full re-sum) vs
/// forced-scalar snapshot (bit-exact); evaluate() vs the dispatched snapshot
/// (bit-exact); dispatched snapshot and patched-sum incremental vs the
/// oracle (kTempTolC). Returns false on any mismatch.
bool check_case(const FastThermalModel& model, const ChipletSystem& sys,
                const Floorplan& fp, SoaSnapshot& snapshot,
                SoaSnapshot& scalar_snapshot, IncrementalThermalState& incr,
                IncrementalThermalState& incr_patched,
                const std::string& context) {
  const FastThermalResult oracle = reference_evaluate(model, sys, fp);
  const FastThermalResult evaluated = model.evaluate(sys, fp);

  incr.sync(fp);
  std::vector<double> incr_temps;
  incr.temperatures(incr_temps);

  incr_patched.sync(fp);
  std::vector<double> patched_temps;
  incr_patched.temperatures(patched_temps);

  snapshot.refresh(fp);
  FastThermalResult soa;
  snapshot.evaluate(soa);
  scalar_snapshot.refresh(fp);
  FastThermalResult soa_scalar;
  scalar_snapshot.evaluate(soa_scalar);

  bool ok = true;
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= kTempTolC;
  };
  EXPECT_EQ(oracle.chiplet_temp_c.size(), soa.chiplet_temp_c.size());
  for (std::size_t i = 0; i < oracle.chiplet_temp_c.size(); ++i) {
    // Full re-sum of the scalar table's pair rows: the very doubles the
    // scalar snapshot sums, in the same order.
    EXPECT_EQ(incr_temps[i], soa_scalar.chiplet_temp_c[i])
        << context << ": incremental chiplet " << i;
    // evaluate() is a batch of one through a dispatched snapshot.
    EXPECT_EQ(evaluated.chiplet_temp_c[i], soa.chiplet_temp_c[i])
        << context << ": evaluate() chiplet " << i;
    EXPECT_NEAR(patched_temps[i], oracle.chiplet_temp_c[i], kTempTolC)
        << context << ": patched incremental chiplet " << i;
    EXPECT_NEAR(soa.chiplet_temp_c[i], oracle.chiplet_temp_c[i], kTempTolC)
        << context << ": SoA chiplet " << i;
    ok = ok && incr_temps[i] == soa_scalar.chiplet_temp_c[i] &&
         evaluated.chiplet_temp_c[i] == soa.chiplet_temp_c[i] &&
         near(patched_temps[i], oracle.chiplet_temp_c[i]) &&
         near(soa.chiplet_temp_c[i], oracle.chiplet_temp_c[i]);
  }
  EXPECT_EQ(incr.max_temperature_c(), soa_scalar.max_temp_c) << context;
  EXPECT_EQ(evaluated.max_temp_c, soa.max_temp_c) << context;
  EXPECT_NEAR(incr_patched.max_temperature_c(), oracle.max_temp_c, kTempTolC)
      << context;
  EXPECT_NEAR(soa.max_temp_c, oracle.max_temp_c, kTempTolC) << context;
  ok = ok && incr.max_temperature_c() == soa_scalar.max_temp_c &&
       evaluated.max_temp_c == soa.max_temp_c &&
       near(incr_patched.max_temperature_c(), oracle.max_temp_c) &&
       near(soa.max_temp_c, oracle.max_temp_c);
  if (!ok) report_failure_seed(context);
  return ok;
}

// The acceptance bar: >= 1000 random (system, floorplan) cases across all
// config variants, each checked against the oracle and the incremental
// engine.
TEST(SoaKernel, FuzzedSystemsMatchOracleAndIncremental) {
  const auto vs = variants();
  const int scale = fuzz_scale();
  const int systems_per_variant = 90 * scale;
  Rng rng(0x50a50a5ULL);
  int cases = 0;
  for (const Variant& v : vs) {
    const FastThermalModel model = make_model(v.config, v.correction, v.droop);
    for (int s = 0; s < systems_per_variant; ++s) {
      const std::uint64_t sys_seed = rng.next();
      Rng sys_rng(sys_seed);
      const ChipletSystem sys = random_system(sys_rng);
      SoaSnapshot snapshot(model, sys);
      SoaSnapshot scalar_snapshot(model, sys);
      scalar_snapshot.set_simd_level(util::SimdLevel::kScalar);
      // The bit-exact axis runs the scalar table with the full re-sum query;
      // a second state keeps the defaults (dispatched table, patched-sum
      // query) for the 1e-9 axis.
      IncrementalThermalState incr(model, sys);
      incr.set_simd_level(util::SimdLevel::kScalar);
      incr.set_patched_query(false);
      IncrementalThermalState incr_patched(model, sys);
      for (int f = 0; f < 3; ++f, ++cases) {
        const Floorplan fp = random_floorplan(sys, sys_rng);
        const std::string context = std::string("variant=") + v.name +
                                    " system_seed=" +
                                    std::to_string(sys_seed) +
                                    " floorplan_index=" + std::to_string(f);
        if (!check_case(model, sys, fp, snapshot, scalar_snapshot, incr,
                        incr_patched, context)) {
          return;  // the seed is reported; stop before flooding the log
        }
      }
    }
  }
  EXPECT_GE(cases, 1000 * scale);
}

// Second differential axis: the dispatched SIMD table (AVX2/NEON when the
// host has them) against the scalar table and both against the oracle, over
// the same fuzz families and every config variant. On a scalar-only host
// the first comparison degenerates to scalar-vs-scalar; CI's x86 runners
// exercise the real AVX2 comparison (including one leg under ASan/UBSan —
// see ci.yml's sanitizer matrix) and the aarch64 leg the NEON one.
TEST(SoaKernel, SimdMatchesForcedScalarAcrossFuzzedSystems) {
  const util::SimdLevel dispatched = soa_dispatch_level();
  SCOPED_TRACE(std::string("dispatched level: ") +
               util::simd_level_name(dispatched));
  const auto vs = variants();
  const int scale = fuzz_scale();
  const int systems_per_variant = 45 * scale;
  Rng rng(0x513d51dULL);
  for (const Variant& v : vs) {
    const FastThermalModel model = make_model(v.config, v.correction, v.droop);
    for (int s = 0; s < systems_per_variant; ++s) {
      const std::uint64_t sys_seed = rng.next();
      Rng sys_rng(sys_seed);
      const ChipletSystem sys = random_system(sys_rng);
      SoaSnapshot simd(model, sys);
      SoaSnapshot scalar(model, sys);
      ASSERT_EQ(simd.simd_level(), dispatched);  // new snapshots dispatch
      ASSERT_EQ(scalar.set_simd_level(util::SimdLevel::kScalar),
                util::SimdLevel::kScalar);
      for (int f = 0; f < 3; ++f) {
        const Floorplan fp = random_floorplan(sys, sys_rng);
        simd.refresh(fp);
        scalar.refresh(fp);
        FastThermalResult rs, rv;
        scalar.evaluate(rs);
        simd.evaluate(rv);
        const FastThermalResult oracle = reference_evaluate(model, sys, fp);
        const std::string context =
            std::string("simd-vs-scalar variant=") + v.name + " level=" +
            util::simd_level_name(dispatched) + " system_seed=" +
            std::to_string(sys_seed) + " floorplan_index=" + std::to_string(f);
        bool ok = true;
        const auto expect_near = [&](double a, double b, const char* what,
                                     std::size_t i) {
          EXPECT_NEAR(a, b, kTempTolC) << context << ": " << what << " " << i;
          ok = ok && std::abs(a - b) <= kTempTolC;
        };
        expect_near(rv.max_temp_c, rs.max_temp_c, "simd vs scalar peak", 0);
        expect_near(rs.max_temp_c, oracle.max_temp_c, "scalar vs oracle peak",
                    0);
        for (std::size_t i = 0; i < rs.chiplet_temp_c.size(); ++i) {
          expect_near(rv.chiplet_temp_c[i], rs.chiplet_temp_c[i],
                      "simd vs scalar chiplet", i);
          expect_near(rs.chiplet_temp_c[i], oracle.chiplet_temp_c[i],
                      "scalar vs oracle chiplet", i);
        }
        if (!ok) {
          report_failure_seed(context);
          return;  // the seed is reported; stop before flooding the log
        }
      }
    }
  }
}

// Requesting an unavailable level must serve the scalar table — never
// nullptr, and never a different SIMD flavour (a NEON request on x86 and
// vice versa).
TEST(SoaKernel, UnavailableSimdLevelFallsBackToScalar) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, false);
  const ChipletSystem sys("s", kInterposer, kInterposer,
                          {{"a", 4.0, 4.0, 5.0}, {"b", 4.0, 4.0, 5.0}}, {});
  SoaSnapshot snap(model, sys);
#if defined(__aarch64__)
  const auto foreign = util::SimdLevel::kAvx2;
#else
  const auto foreign = util::SimdLevel::kNeon;
#endif
  ASSERT_NE(soa_kernel_ops(util::SimdLevel::kScalar), nullptr);
  EXPECT_EQ(soa_kernel_ops(foreign), soa_kernel_ops(util::SimdLevel::kScalar));
  EXPECT_EQ(soa_served_level(foreign), util::SimdLevel::kScalar);
  EXPECT_EQ(snap.set_simd_level(foreign), util::SimdLevel::kScalar);
  EXPECT_EQ(snap.simd_level(), util::SimdLevel::kScalar);
  // And the snapshot evaluates correctly on the scalar table.
  Floorplan fp(sys);
  fp.place(0, {5.0, 5.0});
  fp.place(1, {20.0, 8.0});
  snap.refresh(fp);
  FastThermalResult r;
  snap.evaluate(r);
  EXPECT_NEAR(r.max_temp_c, reference_evaluate(model, sys, fp).max_temp_c,
              kTempTolC);
}

// evaluate_batch must reproduce per-candidate snapshot results exactly, for
// any thread count (chunking never changes per-candidate arithmetic), equal
// per-call evaluate() exactly, and stay within kTempTolC of the oracle.
TEST(SoaKernel, BatchMatchesSerialForAnyThreadCount) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(0xbead5ULL);
  const ChipletSystem sys = [&] {
    systems::SyntheticConfig sc;
    sc.min_chiplets = 12;
    sc.max_chiplets = 12;
    sc.interposer_w_mm = kInterposer;
    sc.interposer_h_mm = kInterposer;
    return systems::SyntheticSystemGenerator(sc).generate(17, "batch");
  }();
  std::vector<Floorplan> fps;
  for (int i = 0; i < 33; ++i) fps.push_back(random_floorplan(sys, rng));

  const auto serial = model.evaluate_batch(sys, fps);
  ASSERT_EQ(serial.size(), fps.size());
  for (const std::size_t threads : {2u, 5u}) {
    parallel::ThreadPool pool(threads);
    const auto pooled = model.evaluate_batch(sys, fps, &pool);
    ASSERT_EQ(pooled.size(), fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      EXPECT_EQ(pooled[i].max_temp_c, serial[i].max_temp_c)
          << "threads=" << threads << " candidate " << i;
      for (std::size_t j = 0; j < serial[i].chiplet_temp_c.size(); ++j) {
        EXPECT_EQ(pooled[i].chiplet_temp_c[j], serial[i].chiplet_temp_c[j]);
      }
    }
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    const auto single = model.evaluate(sys, fps[i]);
    EXPECT_EQ(serial[i].max_temp_c, single.max_temp_c) << "candidate " << i;
    EXPECT_EQ(serial[i].chiplet_temp_c, single.chiplet_temp_c);
    EXPECT_NEAR(serial[i].max_temp_c,
                reference_evaluate(model, sys, fps[i]).max_temp_c, kTempTolC);
  }
}

// Evaluator-level batch protocol: the default (grid-solver style) fallback
// and the fast-model override must equal per-call evaluate().
TEST(SoaKernel, EvaluatorBatchMatchesPerCallQueries) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(0xfeedbeefULL);
  systems::SyntheticConfig sc;
  sc.min_chiplets = 6;
  sc.max_chiplets = 6;
  sc.interposer_w_mm = kInterposer;
  sc.interposer_h_mm = kInterposer;
  const ChipletSystem sys =
      systems::SyntheticSystemGenerator(sc).generate(23, "eval-batch");
  std::vector<Floorplan> fps;
  for (int i = 0; i < 7; ++i) fps.push_back(random_floorplan(sys, rng));

  EvaluateOnlyEvaluator fast(model);
  IncrementalFastModelEvaluator incremental(model);
  for (auto* eval :
       std::vector<ThermalEvaluator*>{&fast, &incremental}) {
    const long before = eval->num_evaluations();
    const auto batch = eval->max_temperature_batch(sys, fps);
    ASSERT_EQ(batch.size(), fps.size());
    EXPECT_EQ(eval->num_evaluations(),
              before + static_cast<long>(fps.size()));
    for (std::size_t i = 0; i < fps.size(); ++i) {
      EXPECT_EQ(batch[i], model.evaluate(sys, fps[i]).max_temp_c)
          << eval->name() << " candidate " << i;
    }
  }
}

// Zero-power and unplaced dies exercise the kernel's source-skip paths; a
// die with no power still reads its own temperature from neighbours.
TEST(SoaKernel, ZeroPowerAndUnplacedDies) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  const ChipletSystem sys(
      "skip-paths", kInterposer, kInterposer,
      {{"hot", 8.0, 8.0, 30.0}, {"dark", 6.0, 6.0, 0.0},
       {"warm", 7.0, 5.0, 12.0}, {"ghost", 5.0, 5.0, 9.0}},
      {});
  Floorplan fp(sys);
  fp.place(0, {5.0, 5.0});
  fp.place(1, {20.0, 8.0});
  fp.place(2, {35.0, 30.0});
  // chiplet 3 stays unplaced.

  const auto oracle = reference_evaluate(model, sys, fp);
  SoaSnapshot snapshot(model, sys);
  snapshot.refresh(fp);
  FastThermalResult soa;
  snapshot.evaluate(soa);
  EXPECT_EQ(snapshot.num_sources(), 2u);  // zero-power die is not a source
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    EXPECT_NEAR(soa.chiplet_temp_c[i], oracle.chiplet_temp_c[i], kTempTolC);
  }
  EXPECT_EQ(soa.chiplet_temp_c[3], model.ambient_c());  // unplaced: ambient
  EXPECT_GT(soa.chiplet_temp_c[1], model.ambient_c());  // heated by others

  // Empty placement: everything ambient.
  Floorplan empty(sys);
  snapshot.refresh(empty);
  snapshot.evaluate(soa);
  EXPECT_EQ(soa.max_temp_c, model.ambient_c());
}

TEST(SoaKernel, RejectsEmptyModelAndMismatchedFloorplan) {
  EXPECT_THROW(
      {
        const ChipletSystem sys("s", 10.0, 10.0, {{"a", 2.0, 2.0, 1.0}}, {});
        SoaSnapshot snap(FastThermalModel{}, sys);
      },
      std::invalid_argument);

  const FastThermalModel model = make_model(FastModelConfig{}, false, false);
  const ChipletSystem sys("s", kInterposer, kInterposer,
                          {{"a", 4.0, 4.0, 5.0}, {"b", 4.0, 4.0, 5.0}}, {});
  const ChipletSystem other("o", kInterposer, kInterposer,
                            {{"a", 4.0, 4.0, 5.0}}, {});
  SoaSnapshot snap(model, sys);
  EXPECT_THROW(snap.refresh(Floorplan(other)), std::invalid_argument);
  const FastThermalModel no_tables;
  EXPECT_THROW(no_tables.evaluate_batch(sys, {}), std::logic_error);
}

// Regression: a 2-knot mutual table — the smallest the construction
// contract allows — must bind and evaluate. SoaSnapshot used to compute
// coord_cap_ from view.size - 1 before checking the size, so a degenerate
// table would have underflowed std::size_t; the constructor now validates
// size >= 2 first, and the minimum-size table must take the normal uniform
// path (a single interpolation segment).
TEST(SoaKernel, MinimumSizeMutualTableEvaluates) {
  const std::vector<double> dims{2.0, 10.0, 22.0};
  std::vector<std::vector<double>> self_vals(dims.size(),
                                             std::vector<double>(dims.size()));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (std::size_t j = 0; j < dims.size(); ++j) {
      self_vals[i][j] = 2.0 / (1.0 + 0.05 * dims[i] * dims[j]);
    }
  }
  for (const bool images : {true, false}) {
    FastModelConfig config;
    config.use_images = images;
    FastThermalModel model(SelfResistanceTable(dims, dims, self_vals),
                           MutualResistanceTable({0.0, 90.0}, {0.7, 0.04}),
                           45.0, config);
    model.set_image_params(kInterposer, kInterposer, 0.04);
    const ChipletSystem sys("tiny-table", kInterposer, kInterposer,
                            {{"a", 8.0, 8.0, 20.0},
                             {"b", 6.0, 4.0, 10.0},
                             {"c", 5.0, 5.0, 0.0}},
                            {});
    Floorplan fp(sys);
    fp.place(0, {4.0, 4.0});
    fp.place(1, {30.0, 12.0});
    fp.place(2, {18.0, 40.0});

    SoaSnapshot snapshot(model, sys);
    snapshot.refresh(fp);
    FastThermalResult soa;
    snapshot.evaluate(soa);
    const auto oracle = reference_evaluate(model, sys, fp);
    for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
      EXPECT_NEAR(soa.chiplet_temp_c[i], oracle.chiplet_temp_c[i], kTempTolC)
          << "images=" << images << " chiplet " << i;
    }
    EXPECT_NEAR(soa.max_temp_c, oracle.max_temp_c, kTempTolC)
        << "images=" << images;
  }
}

// The lane split behind evaluate_batch: for any (candidates, lanes) the
// per-lane ranges must tile [0, b) exactly with sizes differing by at most
// one — including counts where the old b * c / lanes form overflows
// std::size_t.
TEST(SoaKernel, BatchLaneRangePartitionsExactly) {
  const auto check_partition = [](std::size_t b, std::size_t lanes) {
    SCOPED_TRACE("b=" + std::to_string(b) + " lanes=" + std::to_string(lanes));
    const std::size_t quotient = b / lanes;
    const std::size_t remainder = b % lanes;
    std::size_t prev_hi = 0;
    for (std::size_t c = 0; c < lanes; ++c) {
      const auto [lo, hi] = batch_lane_range(b, lanes, c);
      EXPECT_EQ(lo, prev_hi);  // contiguous: lane c starts where c-1 ended
      EXPECT_EQ(hi - lo, quotient + (c < remainder ? 1 : 0));
      prev_hi = hi;
    }
    EXPECT_EQ(prev_hi, b);  // the last lane ends exactly at b
  };
  for (const auto& [b, lanes] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {0, 7}, {1, 1}, {1, 8}, {5, 3}, {7, 7}, {33, 5},
           {64, 64}, {65, 64}, {1000, 7}, {1000, 1}}) {
    check_partition(b, lanes);
  }
  // Adversarial: near-SIZE_MAX batch counts. The naive split computes
  // b * c / lanes, which wraps for any c >= 2 here; the quotient form must
  // still produce an exact partition.
  const std::size_t big = std::numeric_limits<std::size_t>::max() - 3;
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{5}}) {
    check_partition(big, lanes);
  }
}

// The SoA consumers accept only uniform-step mutual tables; the model
// constructor guarantees that by resampling whatever it is given. Odd knot
// spacings (gaps that are not multiples of each other, or irrational ones)
// must still come out uniform, bind, and evaluate within kTempTolC of the
// oracle, which interpolates the resampled table in division form.
TEST(SoaKernel, ModelResamplesOddSpacedTablesToUniform) {
  const std::vector<double> dims{2.0, 10.0, 22.0};
  const std::vector<std::vector<double>> self_vals(
      dims.size(), std::vector<double>(dims.size(), 0.5));
  const ChipletSystem sys("odd", kInterposer, kInterposer,
                          {{"a", 8.0, 8.0, 20.0}, {"b", 6.0, 4.0, 10.0}}, {});
  Floorplan fp(sys);
  fp.place(0, {4.0, 4.0});
  fp.place(1, {30.0, 12.0});
  Rng rng(0x0dd5ULL);
  for (int t = 0; t < 42; ++t) {
    std::vector<double> knots{0.0};
    while (knots.back() < 90.0) {
      knots.push_back(knots.back() + rng.uniform(0.37, 9.1) *
                                         (t % 2 == 0 ? 1.0 : std::sqrt(2.0)));
    }
    std::vector<double> vals;
    for (double d : knots) vals.push_back(0.04 + 0.8 * std::exp(-d / 8.0));
    const MutualResistanceTable table(knots, vals);
    ASSERT_FALSE(table.is_uniform()) << "table " << t;
    FastThermalModel model(SelfResistanceTable(dims, dims, self_vals), table,
                           45.0, FastModelConfig{});
    model.set_image_params(kInterposer, kInterposer, 0.04);
    ASSERT_TRUE(model.mutual_table().is_uniform()) << "table " << t;
    SoaSnapshot snapshot(model, sys);
    snapshot.refresh(fp);
    FastThermalResult soa;
    snapshot.evaluate(soa);
    EXPECT_NEAR(soa.max_temp_c, reference_evaluate(model, sys, fp).max_temp_c,
                kTempTolC)
        << "table " << t;
  }
  // At the resample's 4096-point cap: one gap far below span / 4096 forces
  // the cap, and a front well above 0 makes each knot's rounding large
  // relative to the step.
  for (const double front : {0.0, 0.35, 37.0, 250.0, 1000.0, 1e5}) {
    for (const double tiny : {1e-3, 1e-6}) {
      std::vector<double> knots{front, front + tiny};
      while (knots.back() < front + 90.0) {
        knots.push_back(knots.back() + rng.uniform(0.37, 9.1));
      }
      std::vector<double> vals;
      for (double d : knots) {
        vals.push_back(0.04 + 0.8 * std::exp(-(d - front) / 8.0));
      }
      const MutualResistanceTable table(knots, vals);
      EXPECT_EQ(table.resampled_uniform().distances().size(), 4096u)
          << "front " << front;
      FastThermalModel model(SelfResistanceTable(dims, dims, self_vals), table,
                             45.0, FastModelConfig{});
      model.set_image_params(kInterposer, kInterposer, 0.04);
      ASSERT_TRUE(model.mutual_table().is_uniform())
          << "front " << front << " gap " << tiny;
      SoaSnapshot snapshot(model, sys);
      snapshot.refresh(fp);
      FastThermalResult soa;
      snapshot.evaluate(soa);
      EXPECT_NEAR(soa.max_temp_c,
                  reference_evaluate(model, sys, fp).max_temp_c, kTempTolC)
          << "front " << front << " gap " << tiny;
    }
  }
  // More knots than the cap: the resample still stops at 4096 points.
  std::vector<double> knots, vals;
  double d = 0.0;
  while (knots.size() < 5000) {
    knots.push_back(d);
    vals.push_back(0.04 + 0.8 * std::exp(-d / 8.0));
    d += knots.size() % 2 == 0 ? 0.01 : 0.013;
  }
  const MutualResistanceTable dense(knots, vals);
  ASSERT_FALSE(dense.is_uniform());
  const MutualResistanceTable resampled = dense.resampled_uniform();
  EXPECT_EQ(resampled.distances().size(), 4096u);
  EXPECT_TRUE(resampled.is_uniform());
}

// The shared-block invariant behind "full re-sum incremental == batch": in
// every table this host can run, a pair row (one block against many probes)
// equals the sweep subtotal (one probe against many blocks) for the same
// (probe, block), bit for bit — both forms, block sizes with and without a
// sub-lane tail, probes inside, between and beyond the table's range.
TEST(SoaKernel, PairRowEqualsSweepSubtotalInEveryTable) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, false);
  SoaModelConsts k;
  k.bind(model);
  Rng rng(0x9a1e5ULL);
  for (const util::SimdLevel level : runnable_simd_levels()) {
    SCOPED_TRACE(std::string("level ") + util::simd_level_name(level));
    const SoaKernelOps& ops = *soa_kernel_ops(level);
    for (const std::size_t pts : {1u, 3u, 4u, 9u, 13u, 36u}) {
      const std::size_t n_src = 5;
      const std::size_t n_probes = 7;
      std::vector<double> sx(n_src * pts), sy(n_src * pts), w(pts);
      for (double& x : sx) x = rng.uniform(-kInterposer, 2.0 * kInterposer);
      for (double& y : sy) y = rng.uniform(-kInterposer, 2.0 * kInterposer);
      for (double& x : w) x = rng.uniform(0.1, 1.0);
      std::vector<double> px(n_probes), py(n_probes);
      for (double& x : px) x = rng.uniform(0.0, kInterposer);
      for (double& y : py) y = rng.uniform(0.0, kInterposer);
      const double front = k.mutual.front;
      const double back = k.mutual.back;
      const double inv = k.mutual.inv_step;
      const double cap = k.coord_cap;
      for (const bool weighted : {true, false}) {
        const double* lut = weighted ? k.lut_img.data() : k.lut_raw.data();
        std::vector<double> sweep(n_probes * n_src), rows(n_src * n_probes);
        for (std::size_t p = 0; p < n_probes; ++p) {
          double* sub = sweep.data() + p * n_src;
          if (weighted) {
            ops.sweep_weighted(sx.data(), sy.data(), px[p], py[p], front,
                               back, inv, cap, lut, w.data(), pts, n_src, sub);
          } else {
            ops.sweep_raw(sx.data(), sy.data(), px[p], py[p], front, back,
                          inv, cap, lut, pts, n_src, sub);
          }
        }
        for (std::size_t a = 0; a < n_src; ++a) {
          double* row = rows.data() + a * n_probes;
          if (weighted) {
            ops.pair_weighted(px.data(), py.data(), n_probes,
                              sx.data() + a * pts, sy.data() + a * pts, pts,
                              front, back, inv, cap, lut, w.data(), row);
          } else {
            ops.pair_raw(px.data(), py.data(), n_probes, sx.data() + a * pts,
                         sy.data() + a * pts, pts, front, back, inv, cap, lut,
                         row);
          }
        }
        for (std::size_t p = 0; p < n_probes; ++p) {
          for (std::size_t a = 0; a < n_src; ++a) {
            EXPECT_EQ(rows[a * n_probes + p], sweep[p * n_src + a])
                << "pts=" << pts << " weighted=" << weighted << " probe " << p
                << " block " << a;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rlplan::thermal
