// Generic simulated-annealing engine.
//
// Template core shared by the TAP-2.5D baseline and reusable for other
// combinatorial substrates; tested independently on analytic toy problems.
// Geometric cooling with Metropolis acceptance; the proposal function may
// decline to produce a move (returns std::nullopt), which costs an iteration
// but no evaluation — matching how floorplan moves that violate legality are
// rejected before the expensive thermal call. A round may score several
// proposals through one batched cost call (TAP-2.5D population mode).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/robust.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rlplan::sa {

struct AnnealOptions {
  /// Initial temperature; <= 0 requests auto-calibration from the first
  /// `calibration_samples` accepted proposals (T0 = mean |delta cost|),
  /// fewer when max_evaluations runs out first.
  double t_initial = -1.0;
  int calibration_samples = 20;
  double t_final = 1e-4;
  double cooling = 0.95;          ///< geometric factor per temperature level
  int moves_per_temperature = 40;
  long max_evaluations = 100000;  ///< hard cap on cost-function calls
  double time_budget_s = 0.0;     ///< 0 = unlimited
  /// Cooperative deadline/cancellation, polled once per move alongside the
  /// budget checks (inert by default: one branch per poll). Stopping returns
  /// the best state found so far and records the reason in AnnealStats.
  robust::RunControl control{};
};

struct AnnealStats {
  long evaluations = 0;
  long proposals = 0;
  long accepted = 0;
  double seconds = 0.0;
  double final_temperature = 0.0;
  std::vector<double> best_cost_history;  ///< best-so-far after each level
  /// kNone when the run finished within its own budgets; kCancelled/kDeadline
  /// when AnnealOptions::control stopped it early (result is best-so-far).
  robust::StopReason stop_reason = robust::StopReason::kNone;

  bool degraded() const { return stop_reason != robust::StopReason::kNone; }
};

/// Transaction callbacks around each evaluated proposal, so a cost function
/// with incremental internal state (e.g. an incremental thermal evaluator
/// that mirrored the candidate's mutations) learns the verdict: on_accept
/// fires when the candidate becomes the current state (and once for the
/// initial evaluation), on_reject when it is discarded — including the
/// calibration probes, which never advance the current state. Either
/// callback may be empty.
struct AnnealHooks {
  std::function<void()> on_accept;
  std::function<void()> on_reject;
};

/// Scores every candidate of a round into the index-aligned `costs` span
/// (same size as `candidates`).
template <typename State>
using BatchCost =
    std::function<void(std::span<const State> candidates,
                       std::span<double> costs)>;

/// Minimizes the cost over states proposed by `propose`. Returns the best
/// state encountered; statistics in `stats`.
///
/// Each Metropolis round draws `round` proposals from the current state and
/// scores the legal ones through ONE `score` call; the cheapest candidate
/// (first on ties) then faces the Metropolis test, and the hooks fire once
/// per round with its verdict. Every scored candidate counts as an
/// evaluation, and the budget is checked before each round, so a run stops
/// within `max_evaluations + round - 1` evaluations. The initial state and
/// the calibration probes are scored one at a time. `round` == 1 is the
/// classic single-proposal anneal.
template <typename State>
State anneal(State initial, const BatchCost<State>& score,
             const std::function<std::optional<State>(const State&, Rng&)>&
                 propose,
             const AnnealOptions& options, Rng& rng, AnnealStats& stats,
             const AnnealHooks& hooks = {}, std::size_t round = 1) {
  const Timer timer;
  const bool controlled = options.control.active();
  const auto score_one = [&score](const State& s) {
    double c = 0.0;
    score(std::span<const State>(&s, 1), std::span<double>(&c, 1));
    return c;
  };
  State current = initial;
  double current_cost = score_one(current);
  ++stats.evaluations;
  if (hooks.on_accept) hooks.on_accept();
  State best = current;
  double best_cost = current_cost;

  // Auto-calibrate T0 from the magnitude of initial cost deltas.
  double t = options.t_initial;
  if (t <= 0.0) {
    double delta_sum = 0.0;
    int samples = 0;
    for (int i = 0; i < options.calibration_samples * 4 &&
                    samples < options.calibration_samples &&
                    stats.evaluations < options.max_evaluations;
         ++i) {
      if (controlled && options.control.stop_requested()) break;
      auto cand = propose(current, rng);
      if (!cand) continue;
      const double c = score_one(*cand);
      ++stats.evaluations;
      if (hooks.on_reject) hooks.on_reject();  // probes never advance current
      delta_sum += std::abs(c - current_cost);
      ++samples;
      if (c < best_cost) {
        best = *cand;
        best_cost = c;
      }
    }
    t = samples > 0 ? std::max(delta_sum / samples, 1e-6) : 1.0;
  }

  std::vector<State> candidates;
  candidates.reserve(round);
  std::vector<double> costs(round);
  std::int64_t anneal_level = 0;
  while (t > options.t_final) {
    // One span per temperature level (not per round: classic-mode rounds
    // are ~µs and would be dominated by the span cost itself).
    RLPLAN_TRACE_SPAN("sa.level", anneal_level++);
    for (int m = 0; m < options.moves_per_temperature; ++m) {
      if (stats.evaluations >= options.max_evaluations) break;
      if (options.time_budget_s > 0.0 &&
          timer.seconds() >= options.time_budget_s) {
        break;
      }
      if (controlled && options.control.stop_requested()) break;
      candidates.clear();
      for (std::size_t c = 0; c < round; ++c) {
        ++stats.proposals;
        auto cand = propose(current, rng);
        if (cand) candidates.push_back(std::move(*cand));
      }
      if (candidates.empty()) continue;
      const std::size_t n = candidates.size();
      score(std::span<const State>(candidates),
            std::span<double>(costs.data(), n));
      stats.evaluations += static_cast<long>(n);
      const std::size_t pick = static_cast<std::size_t>(
          std::min_element(costs.begin(),
                           costs.begin() + static_cast<std::ptrdiff_t>(n)) -
          costs.begin());
      // Every scored candidate is a complete state: keep the best even when
      // the Metropolis test below rejects it.
      if (costs[pick] < best_cost) {
        best = candidates[pick];
        best_cost = costs[pick];
      }
      const double delta = costs[pick] - current_cost;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / t)) {
        current = std::move(candidates[pick]);
        current_cost = costs[pick];
        ++stats.accepted;
        if (hooks.on_accept) hooks.on_accept();
      } else if (hooks.on_reject) {
        hooks.on_reject();
      }
    }
    stats.best_cost_history.push_back(best_cost);
    if (stats.evaluations >= options.max_evaluations) break;
    if (options.time_budget_s > 0.0 &&
        timer.seconds() >= options.time_budget_s) {
      break;
    }
    if (controlled && options.control.stop_requested()) break;
    t *= options.cooling;
  }

  if (controlled) {
    stats.stop_reason = options.control.stop_reason();
    if (stats.degraded()) RLPLAN_COUNTER_INC("robust.degraded");
  }
  stats.final_temperature = t;
  stats.seconds = timer.seconds();
  return best;
}

/// The classic single-proposal anneal over a per-state cost function.
template <typename State>
State anneal(State initial, const std::function<double(const State&)>& cost,
             const std::function<std::optional<State>(const State&, Rng&)>&
                 propose,
             const AnnealOptions& options, Rng& rng, AnnealStats& stats,
             const AnnealHooks& hooks = {}) {
  const BatchCost<State> score = [&cost](std::span<const State> candidates,
                                         std::span<double> costs) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      costs[i] = cost(candidates[i]);
    }
  };
  return anneal<State>(std::move(initial), score, propose, options, rng,
                       stats, hooks);
}

}  // namespace rlplan::sa
