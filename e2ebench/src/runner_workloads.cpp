// sa_anneal and rl_train: scenario legs through serve::ScenarioRunner, the
// code path behind `regress` and the serve daemon.
//
// sa_anneal runs the classic TAP-2.5D anneal (RL off) on 16-, 32- and 64-die
// family instances plus the cpu_dram builtin at the shipped budgets. Bump
// assignment dominates it, incremental thermal is the rest, and no NN runs.
// rl_train runs PPO training (SA off, one env) on 10- to 16-die instances at
// rl_grid 12. Conv2d forward and backward dominate it, the bump assigner
// runs once per episode and thermal is small.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "bump/assigner.h"
#include "common.h"
#include "core/reward.h"
#include "ledger.h"
#include "rl/planner.h"
#include "rl/session.h"
#include "sa/tap25d.h"
#include "serve/runner.h"
#include "systems/scenario.h"
#include "thermal/characterize.h"
#include "thermal/grid_solver.h"
#include "util/timer.h"

namespace e2ebench {

namespace {

using rlplan::ChipletSystem;
using rlplan::Floorplan;
using rlplan::Timer;
using rlplan::serve::ScenarioRunner;
using rlplan::systems::FamilyConfig;
using rlplan::systems::NetTopology;
using rlplan::systems::Scenario;

enum class Leg { kSa, kRl };

// Every 4th complete floorplan a traced leg scores has its bumps assigned
// once more, timed (see LedgerEvaluator).
constexpr std::size_t kBumpStride = 4;

Scenario make_scenario(const std::string& name, std::uint64_t opt_seed,
                       Leg leg) {
  Scenario s;
  s.name = name;
  s.seed = opt_seed;
  s.budget.run_sa = leg == Leg::kSa;
  s.budget.run_rl = leg == Leg::kRl;
  s.budget.rl_epochs = 2;
  s.budget.rl_episodes_per_update = 8;
  s.budget.rl_grid = 12;
  s.envelope.max_temp_c = 1000.0;  // the runner does not gate envelopes
  s.envelope.max_wirelength_mm = 1e12;
  return s;
}

Scenario family(const std::string& name, std::uint64_t seed,
                std::uint64_t salt, Leg leg, FamilyConfig config,
                long sa_evaluations = 3000) {
  Scenario s = make_scenario(name, mix_seed(seed, salt), leg);
  s.family = config;
  s.family_seed = mix_seed(seed, salt + 100);
  s.budget.sa_evaluations = sa_evaluations;
  return s;
}

FamilyConfig shape(NetTopology topology, std::size_t chiplets,
                   double interposer_mm, double die_lo, double die_hi,
                   double power_lo, double power_hi) {
  FamilyConfig c;
  c.topology = topology;
  c.chiplets = chiplets;
  c.interposer_w_mm = c.interposer_h_mm = interposer_mm;
  c.min_dim_mm = die_lo;
  c.max_dim_mm = die_hi;
  c.min_power_w = power_lo;
  c.max_power_w = power_hi;
  return c;
}

/// The shipped regress shapes (scenarios/family_star16, family_sweep32,
/// family_sweep64, builtin_cpu_dram), regenerated from --seed.
std::vector<Scenario> sa_scenarios(std::uint64_t seed) {
  FamilyConfig star16 = shape(NetTopology::kStar, 16, 60, 3, 9, 4, 18);
  star16.max_aspect = 1.5;
  FamilyConfig sweep32 = shape(NetTopology::kRandom, 32, 90, 3, 8, 3, 12);
  sweep32.extra_net_prob = 0.1;
  FamilyConfig sweep64 = shape(NetTopology::kRandom, 64, 120, 3, 8, 2, 10);
  sweep64.extra_net_prob = 0.05;
  std::vector<Scenario> out;
  out.push_back(family("star16", seed, 1, Leg::kSa, star16));
  out.push_back(family("sweep32", seed, 2, Leg::kSa, sweep32));
  out.push_back(family("sweep64", seed, 3, Leg::kSa, sweep64));
  Scenario cpu_dram = make_scenario("cpu_dram", mix_seed(seed, 4), Leg::kSa);
  cpu_dram.builtin = "cpu_dram";
  cpu_dram.budget.sa_evaluations = 4000;
  out.push_back(cpu_dram);
  return out;
}

/// The shipped RL-leg shapes (family_hotspot_pairs10, family_ring12,
/// family_bipartite12, family_star16), all on one 60 mm footprint.
std::vector<Scenario> rl_scenarios(std::uint64_t seed) {
  FamilyConfig hot10 = shape(NetTopology::kRandom, 10, 60, 4, 9, 4, 14);
  hot10.hotspot_pairs = 3;
  hot10.hotspot_power_w = 40;
  hot10.extra_net_prob = 0.2;
  const FamilyConfig ring12 = shape(NetTopology::kRing, 12, 60, 4, 10, 5, 20);
  FamilyConfig bip12 = shape(NetTopology::kBipartite, 12, 60, 4, 10, 5, 20);
  bip12.extra_net_prob = 0.3;
  FamilyConfig star16 = shape(NetTopology::kStar, 16, 60, 3, 9, 4, 18);
  star16.max_aspect = 1.5;
  return {family("hotspot_pairs10", seed, 11, Leg::kRl, hot10),
          family("ring12", seed, 12, Leg::kRl, ring12),
          family("bipartite12", seed, 13, Leg::kRl, bip12),
          family("star16", seed, 14, Leg::kRl, star16)};
}

/// Ground-truth outcome of one leg's best floorplan, scored as the runner
/// scores it.
struct Scored {
  bool legal = false;
  double reward = 0.0;
  rlplan::thermal::ThermalResult truth;
  double truth_s = 0.0;
};

Scored score_leg(const ChipletSystem& system, const Floorplan& best,
                 const rlplan::thermal::LayerStack& stack,
                 const rlplan::thermal::GridDims& dims) {
  Scored out;
  out.legal = best.is_complete() && best.is_legal();
  const rlplan::bump::BumpAssigner assigner;
  const double wl = assigner.assign(system, best).total_mm;
  rlplan::thermal::GridThermalSolver truth(stack, {.dims = dims});
  const Timer t;
  out.truth = truth.solve(system, best);
  out.truth_s = t.seconds();
  out.reward = rlplan::RewardCalculator{}.reward(wl, out.truth.max_temp_c);
  return out;
}

/// In-situ figures of one traced pass.
struct TracedPass {
  double objective = 0.0;
  std::vector<long> counts;
  double seconds = 0.0;
  double leg_s = 0.0;      ///< SA plan or RL training time, summed
  double thermal_s = 0.0;  ///< inside the thermal evaluator
  long bump_calls = 0;     ///< complete floorplans scored: one assign each
  long bump_timed = 0;     ///< of which assigned again, timed
  double bump_timed_s = 0.0;
  long proposals = 0;
  long evaluations = 0;
  long accepted = 0;
  long places = 0;
  double place_s = 0.0;
  long queries = 0;
  double query_s = 0.0;
  long pair_updates = 0;
  long sum_patches = 0;
  long cg_iters = 0;
  long cg_fallbacks = 0;
  double truth_s = 0.0;
  long truth_solves = 0;
  long env_steps = 0;
  long episodes = 0;
  long dead_ends = 0;
  std::vector<double> epoch_s;
  std::vector<Tape> tapes;
};

void note_truth(TracedPass& p, const Scored& s, Report& report,
                const std::string& leg) {
  p.truth_s += s.truth_s;
  ++p.truth_solves;
  p.cg_iters += static_cast<long>(s.truth.cg.iterations);
  p.cg_fallbacks += static_cast<long>(s.truth.fallback_resolves);
  report.check(s.truth.cg.converged && s.truth.fallback_resolves == 0 &&
                   !s.truth.degraded,
               leg + ": truth solve converges without fallback");
  report.check(s.legal, leg + ": traced leg result is complete and legal");
}

/// Adds the decorator's in-situ thermal figures and its tape to `p`.
void note_evaluator(TracedPass& p, LedgerEvaluator& evaluator,
                    const ChipletSystem& system,
                    const rlplan::thermal::FastThermalModel& model) {
  p.thermal_s += evaluator.seconds();
  p.bump_calls += evaluator.complete_floorplans();
  p.bump_timed += evaluator.bump_calls();
  p.bump_timed_s += evaluator.bump_seconds();
  p.places += evaluator.places();
  p.place_s += evaluator.place_seconds();
  p.queries += evaluator.queries();
  p.query_s += evaluator.query_seconds();
  p.pair_updates += evaluator.pair_updates();
  p.sum_patches += evaluator.sum_patches();
  p.tapes.push_back({&system, &model, evaluator.take_tape()});
}

// The traced legs below copy the configuration of run_sa_leg and run_rl_leg
// in src/serve/runner.cpp and must track it: they exist only to record the
// floorplan tape and the AnnealStats / TrainStats figures the runner does
// not return. The traced-vs-untraced objective and count checks catch drift.

/// The SA leg of ScenarioRunner::run with the thermal evaluator wrapped in
/// a LedgerEvaluator; same config, seed and scoring, so same result.
void traced_sa_leg(const Scenario& sc, const ChipletSystem& system,
                   ScenarioRunner& runner, TracedPass& p, Report& report) {
  const auto& model = runner.model_cache().get(system.interposer_width(),
                                               system.interposer_height());
  rlplan::sa::Tap25dConfig tc;
  tc.anneal.max_evaluations = sc.budget.sa_evaluations;
  tc.anneal.moves_per_temperature = sc.budget.sa_moves_per_temperature;
  tc.anneal.cooling = sc.budget.sa_cooling;
  tc.anneal.t_final = 1e-5;
  tc.seed = sc.seed;
  tc.population = runner.config().sa_population;
  tc.batch_threads = 0;
  rlplan::sa::Tap25dPlanner planner(tc);
  LedgerEvaluator evaluator(model, kBumpStride);
  const Timer t;
  const auto result = planner.plan(system, evaluator, rlplan::RewardCalculator{},
                                   rlplan::bump::BumpAssigner{});
  p.leg_s += t.seconds() - evaluator.bump_seconds();
  p.proposals += result.stats.proposals;
  p.evaluations += result.stats.evaluations;
  p.accepted += result.stats.accepted;
  note_evaluator(p, evaluator, system, model);
  const Scored s = score_leg(system, result.best, runner.model_cache().stack(),
                             runner.config().truth_dims);
  note_truth(p, s, report, sc.name);
  model.evaluate_batch(system, std::span<const Floorplan>(&result.best, 1));
  p.objective += -s.reward;
  p.counts.push_back(result.stats.evaluations);
}

/// The RL leg of ScenarioRunner::run (warm cache off) through a
/// LedgerEvaluator, timing each training epoch.
void traced_rl_leg(const Scenario& sc, const ChipletSystem& system,
                   ScenarioRunner& runner, TracedPass& p, Report& report) {
  namespace rl = rlplan::rl;
  const auto& model = runner.model_cache().get(system.interposer_width(),
                                               system.interposer_height());
  rl::TrainingSessionConfig cfg;
  cfg.env.grid = sc.budget.rl_grid;
  cfg.net.grid = sc.budget.rl_grid;
  cfg.ppo.episodes_per_update = sc.budget.rl_episodes_per_update;
  cfg.seed = sc.seed;
  auto owned = std::make_unique<LedgerEvaluator>(model, kBumpStride);
  LedgerEvaluator* evaluator = owned.get();  // the session owns it
  std::vector<rl::SessionTask> tasks;
  tasks.push_back({sc.name, &system, std::move(owned)});
  rl::TrainingSession session(cfg, std::move(tasks));
  const Timer t;
  for (int e = 0; e < sc.budget.rl_epochs; ++e) {
    const Timer te;
    const rl::TrainStats stats = session.train_epoch();
    p.epoch_s.push_back(te.seconds());
    p.episodes += static_cast<long>(stats.episodes);
    p.dead_ends += static_cast<long>(stats.dead_ends);
    report.check(!stats.degraded(), sc.name + ": traced epoch not degraded");
  }
  session.greedy_episode(0);
  p.leg_s += t.seconds() - evaluator->bump_seconds();
  p.env_steps += session.total_env_steps();
  note_evaluator(p, *evaluator, system, model);
  const Floorplan best = session.has_best(0)
                             ? session.best_floorplan(0)
                             : rl::first_fit_floorplan(system, cfg.env);
  const Scored s = score_leg(system, best, runner.model_cache().stack(),
                             runner.config().truth_dims);
  note_truth(p, s, report, sc.name);
  model.evaluate_batch(system, std::span<const Floorplan>(&best, 1));
  p.objective += -s.reward;
  p.counts.push_back(session.total_env_steps());
}

/// sa_anneal's end-to-end run. Each leg runs in a process of its own, and
/// each of its passes in a child forked from the state set-up left (see
/// run_isolated). Whether the bump assigner's page churn hits a leg turns on
/// the heap it runs in (README.md, Noise findings); in one process the 64-die
/// leg's mode follows the other legs and earlier passes, so it changed with
/// the seed and flipped between passes. From a fresh set-up heap every pass
/// pays what one call of the leg pays, churn included, on every seed.
void run_sa_isolated(const Args& args, const std::vector<Scenario>& scenarios,
                     const rlplan::thermal::LayerStack& stack,
                     Report& report) {
  double setup_s = 0.0;
  double pass_s = 0.0;
  double work = 0.0;
  double work_s = 0.0;
  double objective = 0.0;
  long peak_rss_kb = 0;
  for (const Scenario& sc : scenarios) {
    std::optional<ScenarioRunner> runner;
    const auto setup = [&] {
      runner.emplace(stack);
      const ChipletSystem system = sc.build_system();
      runner->model_cache().get(system.interposer_width(),
                                system.interposer_height());
    };
    const auto pass = [&] {
      LegRecord rec;
      const Timer t;
      const auto r = runner->run(sc);
      rec.wall_s = t.seconds();
      rec.leg_s = r.sa.seconds;
      rec.work = r.sa.work;
      rec.objective = -r.sa.reward;
      rec.ok = r.error.empty() && r.sa.ran && r.sa.legal && !r.sa.degraded();
      std::snprintf(rec.error, sizeof rec.error, "%s", r.error.c_str());
      return rec;
    };
    const IsolatedRun run = run_isolated(
        5, 3, args.seconds / static_cast<double>(scenarios.size()), setup,
        pass);
    const LegRecord& first = run.passes.front();
    std::vector<double> wall;
    std::vector<double> leg_s;
    std::printf("# leg %s setup %.4f s passes", sc.name.c_str(), run.setup_s);
    for (const LegRecord& rec : run.passes) {
      std::printf(" %.4f", rec.wall_s);
      report.check(rec.ok, sc.name +
                               ": leg ran, is complete and legal, not degraded" +
                               (rec.error[0] ? std::string(" (") + rec.error +
                                                   ")"
                                             : ""));
      report.check(rec.objective == first.objective && rec.work == first.work,
                   sc.name + ": every pass reproduces the first pass's "
                             "objective and work bit-exactly");
      wall.push_back(rec.wall_s);
      leg_s.push_back(rec.leg_s);
      peak_rss_kb = std::max(peak_rss_kb, rec.peak_rss_kb);
    }
    std::printf("\n");
    std::fflush(stdout);
    setup_s += run.setup_s;
    pass_s += median(wall);
    work += static_cast<double>(first.work);
    work_s += median(leg_s);
    objective += first.objective;
  }
  std::printf("# result objective=%.17g\n", objective);
  report.set("setup_s", setup_s, "s");
  report.set("pass_s", pass_s, "s");
  report.set("work_per_s", work / work_s, "1/s");
  report.set("peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MB");
}

void run_runner_workload(const Args& args, Report& report, Leg leg) {
  const std::vector<Scenario> scenarios =
      leg == Leg::kSa ? sa_scenarios(args.seed) : rl_scenarios(args.seed);
  const auto stack = rlplan::thermal::LayerStack::default_2p5d();
  if (!args.trace && leg == Leg::kSa) {
    run_sa_isolated(args, scenarios, stack, report);
    return;
  }

  // Set-up: build every instance and characterize every footprint.
  std::optional<ScenarioRunner> runner;
  std::vector<ChipletSystem> systems;
  const auto setup = [&] {
    runner.emplace(stack);
    systems.clear();
    for (const Scenario& sc : scenarios) {
      systems.push_back(sc.build_system());
      runner->model_cache().get(systems.back().interposer_width(),
                                systems.back().interposer_height());
    }
  };

  // One untraced pass: every scenario through ScenarioRunner::run. The
  // runner's leg timings of the last pass give serve.overhead_share.
  double run_wall = 0.0;
  double leg_wall = 0.0;
  const auto pass = [&](int) {
    PassOutput out;
    run_wall = leg_wall = 0.0;
    for (const Scenario& sc : scenarios) {
      const Timer t;
      const auto r = runner->run(sc);
      const double wall = t.seconds();
      run_wall += wall;
      const auto& l = leg == Leg::kSa ? r.sa : r.rl;
      report.check(r.error.empty() && l.ran && l.legal && !l.degraded(),
                   sc.name + ": leg ran, is complete and legal, not degraded" +
                       (r.error.empty() ? "" : " (" + r.error + ")"));
      leg_wall += l.seconds;
      out.objective += -l.reward;
      out.counts.push_back(l.work);
      out.unit_s.push_back(wall);
      out.work += static_cast<double>(l.work);
      out.work_s.push_back(l.seconds);
    }
    return out;
  };

  if (!args.trace) {
    // Set-up takes about 0.2 s.
    const double setup_s = time_setup(15, setup);
    const PassSeries series = run_passes(args, report, 3, pass);
    std::printf("# result objective=%.17g\n", series.first.objective);
    report.set("setup_s", setup_s, "s");
    report.set("pass_s", series.pass_s, "s");
    report.set("work_per_s", series.work_per_s, "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  declare_ledger(report);
  setup();
  // Characterization cost and probe count, measured by a characterizer with
  // the runner's own config on each distinct footprint.
  double characterize_s = 0.0;
  long probe_solves = 0;
  std::set<std::pair<double, double>> footprints;
  for (const ChipletSystem& s : systems) {
    if (!footprints.insert({s.interposer_width(), s.interposer_height()})
             .second) {
      continue;
    }
    rlplan::thermal::ThermalCharacterizer ch(
        stack, runner->config().characterization);
    ch.characterize(s.interposer_width(), s.interposer_height());
    characterize_s += ch.report().total_seconds;
    probe_solves += static_cast<long>(ch.report().self_solves +
                                      ch.report().mutual_solves +
                                      ch.report().position_solves);
  }

  const UntracedPair untraced = run_untraced_pair(report, pass);
  const PassOutput& first = untraced.first;
  const double overhead_share = 1.0 - leg_wall / run_wall;

  TracedPass tp;
  const Timer tt;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (leg == Leg::kSa) {
      traced_sa_leg(scenarios[i], systems[i], *runner, tp, report);
    } else {
      traced_rl_leg(scenarios[i], systems[i], *runner, tp, report);
    }
  }
  tp.seconds = tt.seconds();
  report.check(tp.objective == first.objective,
               "traced run reproduces the untraced objective bit-exactly");
  report.check(tp.counts == first.counts,
               "traced run reproduces the untraced work counts");

  // Shares of the traced pass's own leg time, measured side by side in it,
  // so they sum to 1 however the host's speed drifts. Bump time is the
  // calls times the mean of the in-place timed calls.
  const double bump_us = tp.bump_timed_s * 1e6 / tp.bump_timed;
  const double bump_share =
      static_cast<double>(tp.bump_calls) * bump_us * 1e-6 / tp.leg_s;
  const double thermal_share = tp.thermal_s / tp.leg_s;
  const FastEvalTimes fast = replay_fast_eval(tp.tapes, 8);
  const NnTimes nn = time_nn(systems.front(),
                             runner->model_cache().get(
                                 systems.front().interposer_width(),
                                 systems.front().interposer_height()),
                             args.seed);
  const double truth_ms =
      tp.truth_solves ? tp.truth_s * 1e3 / static_cast<double>(tp.truth_solves)
                      : 0.0;

  std::printf("# result objective=%.17g\n", tp.objective);
  if (leg == Leg::kSa) {
    report.set("sa.proposals", static_cast<double>(tp.proposals), "count");
    report.set("sa.evaluations", static_cast<double>(tp.evaluations), "count");
    report.set("sa.legal_ratio",
               static_cast<double>(tp.evaluations) / tp.proposals, "1");
    report.set("sa.accept_ratio",
               static_cast<double>(tp.accepted) / tp.evaluations, "1");
    report.set("sa.other_share", 1.0 - bump_share - thermal_share, "1");
    report_nn(report, nn, true);
  } else {
    report.set("rl.epoch_s", median(tp.epoch_s), "s");
    report.set("rl.env_steps", static_cast<double>(tp.env_steps), "count");
    report.set("rl.episodes", static_cast<double>(tp.episodes), "count");
    report.set("rl.dead_end_ratio",
               static_cast<double>(tp.dead_ends) / tp.episodes, "1");
    report_nn(report, nn, false);
  }
  report.set("bump.calls", static_cast<double>(tp.bump_calls), "count");
  report.set("bump.assign_us", bump_us, "us");
  report.set("bump.share", bump_share, "1");
  report.set("thermal.incr.queries", static_cast<double>(tp.queries), "count");
  report.set("thermal.pair_updates", static_cast<double>(tp.pair_updates),
             "count");
  report.set("thermal.sum_patches", static_cast<double>(tp.sum_patches),
             "count");
  // SA moves dies inside the query (the evaluator syncs to the floorplan),
  // so only RL's explicit notify_place calls are places.
  report.set("thermal.incr.place_us",
             tp.places ? tp.place_s * 1e6 / tp.places : 0.0, "us");
  report.set("thermal.incr.query_us", tp.query_s * 1e6 / tp.queries, "us");
  report.set("thermal.share", thermal_share, "1");
  report.set("thermal.eval_us", fast.eval_us, "us");
  report.set("thermal.batch_eval_us", fast.batch_eval_us, "us");
  report.set("thermal.truth_ms", truth_ms, "ms");
  report.set("thermal.cg_iters", static_cast<double>(tp.cg_iters), "count");
  report.set("thermal.cg_fallbacks", static_cast<double>(tp.cg_fallbacks),
             "count");
  report.set("thermal.speedup_x", truth_ms * 1e3 / fast.eval_us, "x");
  report.set("thermal.characterize_s", characterize_s, "s");
  report.set("thermal.probe_solves", static_cast<double>(probe_solves),
             "count");
  report.set("serve.overhead_share", overhead_share, "1");
  report.set("result.objective", tp.objective, "1");
  report.set("trace.overhead_pct", (tp.seconds - untraced.base_s) / untraced.base_s * 100.0,
             "%");
}

}  // namespace

void run_sa_anneal(const Args& args, Report& report) {
  run_runner_workload(args, report, Leg::kSa);
}

void run_rl_train(const Args& args, Report& report) {
  run_runner_workload(args, report, Leg::kRl);
}

}  // namespace e2ebench
