// thermal_eval: the thermal layer alone, used both ways the optimizers use
// it, at the Table II configuration (default characterization, 48x48 grid,
// 50 mm interposer).
//
// Inputs are the Table II dataset (3 to 8 dies) plus a 16- and a 32-die
// family instance on the same footprint, so one characterization serves
// them all. A pass scores batches of floorplans through
// FastThermalModel::evaluate_batch (read-only), runs a fixed single-die move
// tape through IncrementalThermalState with a commit/rollback mix (mutate),
// and solves dataset floorplans with GridThermalSolver (ground truth). Bump
// assignment and the NN do none of this work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>

#include "common.h"
#include "ledger.h"
#include "systems/synthetic.h"
#include "thermal/characterize.h"
#include "thermal/grid_solver.h"
#include "thermal/incremental.h"
#include "util/rng.h"
#include "util/timer.h"

namespace e2ebench {

namespace {

using rlplan::ChipletSystem;
using rlplan::Floorplan;
using rlplan::Placement;
using rlplan::Rng;
using rlplan::Timer;

constexpr std::size_t kDatasetSystems = 48;  // Table II systems in a pass
constexpr std::size_t kBatch = 64;           // floorplans per system batch
constexpr int kBatchRepeats = 16;            // batch sweeps in a pass
constexpr std::size_t kTruthSolves = 32;     // 48x48 solves in a pass
constexpr std::size_t kMoves = 20000;        // move tape length per instance
constexpr std::size_t kCheckEvery = 64;      // tape moves between checks
constexpr double kAgreeC = 1e-9;             // fast-path agreement bound

struct Move {
  std::size_t die = 0;
  Placement to;
  bool commit = false;
};

struct MoveTape {
  std::size_t system = 0;  ///< index into Inputs::systems
  Floorplan initial;
  std::vector<Move> moves;
  std::vector<double> expected;  ///< evaluate() after every kCheckEvery-th
};

struct Inputs {
  std::vector<ChipletSystem> systems;  ///< dataset, then the 16 and 32 die
  std::vector<std::vector<Floorplan>> batches;  ///< per system
  std::vector<std::vector<double>> batch_expected;
  std::vector<MoveTape> tapes;
};

/// Legal single-die moves from a random legal start; about 40% commit,
/// the rest roll back, as in an anneal at moderate temperature.
MoveTape make_tape(const ChipletSystem& system, std::size_t index,
                   Rng& rng) {
  MoveTape tape{index, rlplan::systems::random_legal_floorplan(system, rng),
                {}, {}};
  Floorplan current = tape.initial;
  while (tape.moves.size() < kMoves) {
    const std::size_t i = rng.uniform_int(system.num_chiplets());
    const auto& c = system.chiplet(i);
    const bool rotated = rng.bernoulli(0.2) != current.placement(i)->rotated;
    const double w = rotated ? c.height : c.width;
    const double h = rotated ? c.width : c.height;
    const rlplan::Point to{
        rng.uniform(0.0, std::max(system.interposer_width() - w, 0.0)),
        rng.uniform(0.0, std::max(system.interposer_height() - h, 0.0))};
    if (!current.can_place(i, to, rotated)) continue;
    tape.moves.push_back({i, Placement{to, rotated}, rng.bernoulli(0.4)});
    if (tape.moves.back().commit) current.place(i, to, rotated);
  }
  return tape;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const rlplan::systems::SyntheticConfig dataset;  // the Table II shape
  const rlplan::systems::SyntheticSystemGenerator gen(dataset);
  for (std::size_t i = 0; i < kDatasetSystems; ++i) {
    in.systems.push_back(gen.generate(seed * 1000003 + i));
  }
  rlplan::systems::FamilyConfig big;
  big.interposer_w_mm = big.interposer_h_mm = dataset.interposer_w_mm;
  big.min_dim_mm = 3.0;
  big.max_dim_mm = 7.0;
  big.chiplets = 16;
  in.systems.push_back(
      rlplan::systems::generate_family(big, mix_seed(seed, 21), "fam16"));
  big.max_dim_mm = 6.0;
  big.chiplets = 32;
  in.systems.push_back(
      rlplan::systems::generate_family(big, mix_seed(seed, 22), "fam32"));

  for (std::size_t s = 0; s < in.systems.size(); ++s) {
    Rng rng(seed * 7919 + s);
    std::vector<Floorplan> batch;
    for (std::size_t b = 0; b < kBatch; ++b) {
      batch.push_back(
          rlplan::systems::random_legal_floorplan(in.systems[s], rng));
    }
    in.batches.push_back(std::move(batch));
  }
  for (std::size_t s = kDatasetSystems; s < in.systems.size(); ++s) {
    Rng rng(mix_seed(seed, 30 + s));
    in.tapes.push_back(make_tape(in.systems[s], s, rng));
  }
  return in;
}

/// Expected values from FastThermalModel::evaluate, the reference path.
void fill_expected(Inputs& in, const rlplan::thermal::FastThermalModel& m) {
  in.batch_expected.clear();
  for (std::size_t s = 0; s < in.systems.size(); ++s) {
    std::vector<double> e;
    for (const Floorplan& fp : in.batches[s]) {
      e.push_back(m.evaluate(in.systems[s], fp).max_temp_c);
    }
    in.batch_expected.push_back(std::move(e));
  }
  for (MoveTape& tape : in.tapes) {
    tape.expected.clear();
    const ChipletSystem& system = in.systems[tape.system];
    Floorplan committed = tape.initial;
    for (std::size_t k = 0; k < tape.moves.size(); ++k) {
      const Move& mv = tape.moves[k];
      Floorplan probe = committed;
      probe.place(mv.die, mv.to.position, mv.to.rotated);
      if ((k + 1) % kCheckEvery == 0) {
        tape.expected.push_back(m.evaluate(system, probe).max_temp_c);
      }
      if (mv.commit) committed = std::move(probe);
    }
  }
}

/// Fine-grained times a traced pass collects.
struct PhaseTimes {
  double batch_s = 0.0;
  double place_s = 0.0;
  double query_s = 0.0;
  double move_s = 0.0;
  double truth_s = 0.0;
  long moves = 0;
  long pair_updates = 0;
  long sum_patches = 0;
  long cg_iters = 0;
  long cg_fallbacks = 0;
  std::vector<double> truth_c;  ///< truth peak per solve (fidelity)
};

PassOutput thermal_pass(const Inputs& in,
                        const rlplan::thermal::FastThermalModel& model,
                        const rlplan::thermal::LayerStack& stack,
                        Report& report, bool traced, PhaseTimes& times) {
  PassOutput out;
  times = PhaseTimes{};
  long batch_evals = 0;

  const Timer tb;
  for (int rep = 0; rep < kBatchRepeats; ++rep) {
    bool agree = true;
    for (std::size_t s = 0; s < in.systems.size(); ++s) {
      const auto r = model.evaluate_batch(
          in.systems[s], std::span<const Floorplan>(in.batches[s]));
      agree = agree && r.size() == in.batch_expected[s].size();
      for (std::size_t b = 0; agree && b < r.size(); ++b) {
        out.objective += r[b].max_temp_c;
        agree = std::abs(r[b].max_temp_c - in.batch_expected[s][b]) <= kAgreeC;
      }
      batch_evals += static_cast<long>(r.size());
    }
    report.check(agree, "evaluate_batch agrees with evaluate() on every "
                        "floorplan");
  }
  times.batch_s = tb.seconds();

  const Timer tm;
  for (const MoveTape& tape : in.tapes) {
    const ChipletSystem& system = in.systems[tape.system];
    rlplan::thermal::IncrementalThermalState state(model, system);
    for (std::size_t i = 0; i < system.num_chiplets(); ++i) {
      state.place(i, *tape.initial.placement(i));
    }
    state.commit();
    bool agree = true;
    for (std::size_t k = 0; k < tape.moves.size(); ++k) {
      const Move& mv = tape.moves[k];
      double t = 0.0;
      if (traced) {
        const Timer tp;
        state.place(mv.die, mv.to);
        times.place_s += tp.seconds();
        const Timer tq;
        t = state.max_temperature_c();
        times.query_s += tq.seconds();
      } else {
        state.place(mv.die, mv.to);
        t = state.max_temperature_c();
      }
      out.objective += t;
      if ((k + 1) % kCheckEvery == 0) {
        agree = agree &&
                std::abs(t - tape.expected[k / kCheckEvery]) <= kAgreeC;
      }
      if (mv.commit) {
        state.commit();
      } else {
        state.undo();
      }
    }
    report.check(agree, system.name() +
                            ": incremental move tape agrees with evaluate()");
    times.moves += static_cast<long>(tape.moves.size());
    times.pair_updates += state.pair_updates();
    times.sum_patches += state.sum_patches();
  }
  times.move_s = tm.seconds();

  const Timer tt;
  rlplan::thermal::GridThermalSolver solver(stack, {.dims = {48, 48}});
  for (std::size_t k = 0; k < kTruthSolves; ++k) {
    const auto r = solver.solve(in.systems[k], in.batches[k].front());
    report.check(r.cg.converged && r.fallback_resolves == 0 && !r.degraded,
                 in.systems[k].name() +
                     ": truth solve converges without fallback");
    out.objective += r.max_temp_c;
    times.truth_c.push_back(r.max_temp_c);
    times.cg_iters += static_cast<long>(r.cg.iterations);
    times.cg_fallbacks += static_cast<long>(r.fallback_resolves);
  }
  times.truth_s = tt.seconds();

  out.counts = {batch_evals, times.moves, times.pair_updates,
                times.sum_patches, times.cg_iters};
  out.unit_s = {times.batch_s, times.move_s, times.truth_s};
  out.work = static_cast<double>(batch_evals);
  out.work_s = {times.batch_s};
  return out;
}

}  // namespace

void run_thermal_eval(const Args& args, Report& report) {
  const auto stack = rlplan::thermal::LayerStack::default_2p5d();
  Inputs in = make_inputs(args.seed);

  // Set-up: Table II characterization of the shared 50 mm footprint.
  rlplan::thermal::CharacterizationConfig cc;
  cc.solver.dims = {48, 48};
  std::optional<rlplan::thermal::FastThermalModel> model;
  rlplan::thermal::CharacterizationReport char_report;
  const auto setup = [&] {
    rlplan::thermal::ThermalCharacterizer ch(stack, cc);
    model.emplace(ch.characterize(in.systems.front().interposer_width(),
                                  in.systems.front().interposer_height()));
    char_report = ch.report();
  };
  double setup_s = 0.0;
  if (args.trace) {
    setup();
  } else {
    setup_s = time_setup(3, setup);  // about 3.7 s each
  }
  fill_expected(in, *model);

  PhaseTimes times;
  const auto pass = [&](int) {
    return thermal_pass(in, *model, stack, report, false, times);
  };

  // Fidelity: the fast model against the pass-0 truth solves (deterministic,
  // so computed once).
  double mae = 0.0;
  double max_err = 0.0;
  const auto fidelity = [&] {
    for (std::size_t k = 0; k < times.truth_c.size(); ++k) {
      const double err = std::abs(in.batch_expected[k].front() -
                                  times.truth_c[k]);
      mae += err / static_cast<double>(times.truth_c.size());
      max_err = std::max(max_err, err);
    }
    std::printf("# result thermal_mae_k=%.17g thermal_max_err_k=%.17g\n", mae,
                max_err);
  };

  if (!args.trace) {
    const PassSeries series = run_passes(args, report, 3, [&](int i) {
      PassOutput out = pass(i);
      if (i == 0) fidelity();
      return out;
    });
    report.set("setup_s", setup_s, "s");
    report.set("pass_s", series.pass_s, "s");
    report.set("work_per_s", series.work_per_s, "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  declare_ledger(report);
  const UntracedPair untraced = run_untraced_pair(report, pass);
  const PassOutput& first = untraced.first;
  fidelity();
  const Timer tt;
  const PassOutput traced = thermal_pass(in, *model, stack, report, true,
                                         times);
  const double traced_s = tt.seconds();
  report.check(traced.objective == first.objective &&
                   traced.counts == first.counts,
               "traced run reproduces the untraced outputs and counts");

  // Entry-point replays over the batch floorplans: evaluate() for the
  // per-floorplan cost, the bump assigner for its cost at these shapes.
  std::vector<Tape> tapes;
  Replay bump;
  for (std::size_t s = 0; s < in.systems.size(); ++s) {
    tapes.push_back({&in.systems[s], &*model, {}});
    for (const Floorplan& fp : in.batches[s]) tapes.back().floorplans.record(fp);
    const Replay r = replay_bump(tapes.back(), 1);
    bump.calls += r.calls;
    bump.seconds += r.seconds;
  }
  const FastEvalTimes fast = replay_fast_eval(tapes, 1);
  const NnTimes nn = time_nn(in.systems[kDatasetSystems], *model, args.seed);

  const double truth_ms = times.truth_s * 1e3 / kTruthSolves;
  const double phases_s = times.batch_s + times.move_s + times.truth_s;
  report.set("thermal.incr.queries", static_cast<double>(times.moves),
             "count");
  report.set("thermal.pair_updates", static_cast<double>(times.pair_updates),
             "count");
  report.set("thermal.sum_patches", static_cast<double>(times.sum_patches),
             "count");
  report.set("thermal.incr.place_us", times.place_s * 1e6 / times.moves,
             "us");
  report.set("thermal.incr.query_us", times.query_s * 1e6 / times.moves,
             "us");
  report.set("thermal.share", phases_s / traced_s, "1");
  report.set("thermal.eval_us", fast.eval_us, "us");
  report.set("thermal.batch_eval_us",
             times.batch_s * 1e6 / static_cast<double>(traced.work), "us");
  report.set("thermal.truth_ms", truth_ms, "ms");
  report.set("thermal.cg_iters", static_cast<double>(times.cg_iters), "count");
  report.set("thermal.cg_fallbacks", static_cast<double>(times.cg_fallbacks),
             "count");
  report.set("thermal.speedup_x", truth_ms * 1e3 / fast.eval_us, "x");
  report.set("thermal.characterize_s", char_report.total_seconds, "s");
  report.set("thermal.probe_solves",
             static_cast<double>(char_report.self_solves +
                                 char_report.mutual_solves +
                                 char_report.position_solves),
             "count");
  report.set("thermal.mae_k", mae, "K");
  report.set("thermal.max_err_k", max_err, "K");
  report.set("bump.assign_us", bump.us_per_call(), "us");
  report_nn(report, nn, true);
  report.set("trace.overhead_pct", (traced_s - untraced.base_s) / untraced.base_s * 100.0, "%");
}

}  // namespace e2ebench
