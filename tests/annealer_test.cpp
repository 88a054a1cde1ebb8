#include "sa/annealer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <span>
#include <vector>

namespace rlplan::sa {
namespace {

TEST(Annealer, MinimizesQuadratic) {
  // State: a double; cost (x - 3)^2; proposals: gaussian steps.
  Rng rng(1);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = 1.0;
  options.t_final = 1e-6;
  options.cooling = 0.9;
  options.moves_per_temperature = 30;
  const double best = anneal<double>(
      10.0, [](const double& x) { return (x - 3.0) * (x - 3.0); },
      [](const double& x, Rng& r) -> std::optional<double> {
        return x + r.normal(0.0, 0.5);
      },
      options, rng, stats);
  EXPECT_NEAR(best, 3.0, 0.2);
  EXPECT_GT(stats.accepted, 0);
  EXPECT_GT(stats.evaluations, 100);
}

TEST(Annealer, RespectsEvaluationBudget) {
  Rng rng(2);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = 1.0;
  options.max_evaluations = 50;
  options.t_final = 1e-12;  // would run forever without the budget
  options.cooling = 0.9999;
  anneal<double>(
      0.0, [](const double& x) { return x * x; },
      [](const double& x, Rng& r) -> std::optional<double> {
        return x + r.normal();
      },
      options, rng, stats);
  EXPECT_LE(stats.evaluations, 51);
}

TEST(Annealer, AutoCalibratesInitialTemperature) {
  Rng rng(3);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = -1.0;  // request calibration
  options.t_final = 1e-3;
  options.cooling = 0.8;
  const double best = anneal<double>(
      5.0, [](const double& x) { return std::abs(x); },
      [](const double& x, Rng& r) -> std::optional<double> {
        return x + r.uniform(-1.0, 1.0);
      },
      options, rng, stats);
  EXPECT_LT(std::abs(best), 5.0);
}

TEST(Annealer, DeclinedProposalsCostNoEvaluation) {
  Rng rng(4);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = 1.0;
  options.t_final = 0.5;
  options.cooling = 0.5;
  options.moves_per_temperature = 20;
  anneal<double>(
      0.0, [](const double& x) { return x * x; },
      [](const double&, Rng&) -> std::optional<double> {
        return std::nullopt;  // always decline
      },
      options, rng, stats);
  EXPECT_EQ(stats.evaluations, 1);  // only the initial state
  EXPECT_GT(stats.proposals, 0);
  EXPECT_EQ(stats.accepted, 0);
}

TEST(Annealer, BestNeverWorseThanInitial) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    AnnealStats stats;
    AnnealOptions options;
    options.t_initial = 10.0;  // very hot: accepts bad moves
    options.t_final = 1.0;
    options.cooling = 0.7;
    const double initial = rng.uniform(-10.0, 10.0);
    const auto cost = [](const double& x) { return x * x; };
    const double best = anneal<double>(
        initial, cost,
        [](const double& x, Rng& r) -> std::optional<double> {
          return x + r.normal(0.0, 2.0);
        },
        options, rng, stats);
    EXPECT_LE(cost(best), cost(initial));
  }
}

TEST(Annealer, HistoryIsMonotoneNonIncreasing) {
  Rng rng(6);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = 2.0;
  options.t_final = 1e-3;
  options.cooling = 0.85;
  anneal<double>(
      8.0, [](const double& x) { return std::abs(x - 1.0); },
      [](const double& x, Rng& r) -> std::optional<double> {
        return x + r.normal(0.0, 0.8);
      },
      options, rng, stats);
  for (std::size_t i = 1; i < stats.best_cost_history.size(); ++i) {
    EXPECT_LE(stats.best_cost_history[i], stats.best_cost_history[i - 1]);
  }
  EXPECT_FALSE(stats.best_cost_history.empty());
}

// ---------------------------------------------------------- rounds of K ----

double toy_cost(const double& x) { return (x - 3.0) * (x - 3.0); }

/// Gaussian step that declines one proposal in five, so rounds come back
/// partly empty the way illegal floorplan moves do.
std::optional<double> toy_step(const double& x, Rng& r) {
  if (r.uniform() < 0.2) return std::nullopt;
  return x + r.normal(0.0, 0.5);
}

/// Round scorer over toy_cost that records each call's candidate count.
BatchCost<double> toy_batch(std::vector<std::size_t>& call_sizes) {
  return [&call_sizes](std::span<const double> candidates,
                       std::span<double> costs) {
    call_sizes.push_back(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      costs[i] = toy_cost(candidates[i]);
    }
  };
}

AnnealOptions toy_options() {
  AnnealOptions options;
  options.t_initial = -1.0;  // calibration probes run too
  options.t_final = 1e-3;
  options.cooling = 0.8;
  options.moves_per_temperature = 10;
  return options;
}

TEST(Annealer, RoundsAreDeterministicPerSeed) {
  for (const std::size_t k : {2u, 4u, 7u}) {
    const auto run = [&](std::uint64_t seed, AnnealStats& stats) {
      std::vector<std::size_t> sizes;
      Rng rng(seed);
      return anneal<double>(10.0, toy_batch(sizes), toy_step, toy_options(),
                            rng, stats, {}, k);
    };
    AnnealStats a, b;
    const double best_a = run(11, a);
    const double best_b = run(11, b);
    EXPECT_EQ(best_a, best_b) << "K=" << k;
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.proposals, b.proposals);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.best_cost_history, b.best_cost_history);
    AnnealStats c;
    EXPECT_NE(run(12, c), best_a) << "K=" << k;
  }
}

TEST(Annealer, RoundsScoreTheirCandidatesInOneCall) {
  const std::size_t k = 4;
  std::vector<std::size_t> sizes;
  long accepts = 0;
  long rejects = 0;
  AnnealHooks hooks;
  hooks.on_accept = [&] { ++accepts; };
  hooks.on_reject = [&] { ++rejects; };
  Rng rng(21);
  AnnealStats stats;
  anneal<double>(10.0, toy_batch(sizes), toy_step, toy_options(), rng, stats,
                 hooks, k);
  const AnnealOptions options = toy_options();
  // The initial state and every calibration probe are scored alone.
  const std::size_t singles =
      1 + static_cast<std::size_t>(options.calibration_samples);
  ASSERT_GT(sizes.size(), singles);
  long scored = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i < singles) {
      EXPECT_EQ(sizes[i], 1u) << "call " << i;
    } else {
      EXPECT_GE(sizes[i], 1u) << "call " << i;
      EXPECT_LE(sizes[i], k) << "call " << i;
    }
    scored += static_cast<long>(sizes[i]);
  }
  EXPECT_EQ(scored, stats.evaluations);
  // One verdict per scored round (the initial state counts as accepted,
  // each probe as rejected).
  EXPECT_EQ(accepts + rejects, static_cast<long>(sizes.size()));
  EXPECT_EQ(accepts, stats.accepted + 1);
  EXPECT_EQ(stats.proposals % static_cast<long>(k), 0);
}

TEST(Annealer, RoundsStayWithinEvaluationBudget) {
  for (const std::size_t k : {1u, 3u, 8u}) {
    for (const long budget : {5L, 50L, 333L}) {
      AnnealOptions options = toy_options();
      options.t_initial = 1.0;  // auto T0 has its own case below
      options.max_evaluations = budget;
      options.t_final = 1e-12;  // would run for long without the budget
      options.cooling = 0.9999;
      std::vector<std::size_t> sizes;
      Rng rng(3);
      AnnealStats stats;
      anneal<double>(10.0, toy_batch(sizes), toy_step, options, rng, stats, {},
                     k);
      EXPECT_LE(stats.evaluations, budget + static_cast<long>(k) - 1)
          << "K=" << k << " budget=" << budget;
      EXPECT_GE(stats.evaluations, budget) << "K=" << k;
    }
  }
}

TEST(Annealer, AutoTemperatureCalibrationStaysWithinBudget) {
  AnnealOptions options = toy_options();  // auto T0: up to 20 probes
  options.max_evaluations = 5;
  std::vector<std::size_t> sizes;
  Rng rng(3);
  AnnealStats stats;
  anneal<double>(10.0, toy_batch(sizes), toy_step, options, rng, stats, {},
                 1);
  EXPECT_LE(stats.evaluations, 5);
}

TEST(Annealer, RoundsNeverEndWorseThanInitial) {
  Rng seeds(5);
  for (int trial = 0; trial < 10; ++trial) {
    AnnealOptions options;
    options.t_initial = 10.0;  // very hot: accepts bad rounds
    options.t_final = 1.0;
    options.cooling = 0.7;
    const double initial = seeds.uniform(-10.0, 10.0);
    std::vector<std::size_t> sizes;
    Rng rng(seeds.next());
    AnnealStats stats;
    const double best = anneal<double>(initial, toy_batch(sizes), toy_step,
                                       options, rng, stats, {}, 5);
    EXPECT_LE(toy_cost(best), toy_cost(initial));
  }
}

TEST(Annealer, RoundOfOneEqualsTheDefaultCall) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng_a(seed);
    AnnealStats a;
    const double best_a = anneal<double>(10.0, toy_cost, toy_step,
                                         toy_options(), rng_a, a);
    std::vector<std::size_t> sizes;
    Rng rng_b(seed);
    AnnealStats b;
    const double best_b = anneal<double>(10.0, toy_batch(sizes), toy_step,
                                         toy_options(), rng_b, b, {}, 1);
    EXPECT_EQ(best_a, best_b);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.proposals, b.proposals);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.final_temperature, b.final_temperature);
    EXPECT_EQ(a.best_cost_history, b.best_cost_history);
    EXPECT_EQ(rng_a.state(), rng_b.state());
  }
}

}  // namespace
}  // namespace rlplan::sa
