// Per-layer ledger instruments: a timing ThermalEvaluator decorator for
// in-situ thermal and bump figures, and entry-point timings of the bump,
// thermal, nn and ppo modules replayed over the floorplans a workload
// produced. All of it lives in the benchmark; the library carries no extra
// spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/incremental.h"

namespace e2ebench {

/// Complete floorplans in the order they were recorded, kept as flat
/// placements in anonymous mmap pages outside the malloc heap. Recording
/// must leave the heap the program's own allocations see as it was: the
/// bump assigner's page churn depends on that heap (see README.md), and a
/// tape of Floorplan copies on the heap turned it on in traced passes.
class FloorplanTape {
 public:
  FloorplanTape();
  ~FloorplanTape();
  FloorplanTape(FloorplanTape&& other) noexcept;
  FloorplanTape(const FloorplanTape&) = delete;
  FloorplanTape& operator=(const FloorplanTape&) = delete;
  FloorplanTape& operator=(FloorplanTape&&) = delete;

  void record(const rlplan::Floorplan& floorplan);
  std::size_t size() const { return dies_ ? used_ / dies_ : 0; }
  /// Re-places every die of `floorplan` as in the k-th recorded floorplan.
  void load(std::size_t k, rlplan::Floorplan& floorplan) const;

 private:
  rlplan::Placement* data_ = nullptr;
  std::size_t used_ = 0;  ///< placements stored
  std::size_t dies_ = 0;
};

/// Forwards to an IncrementalFastModelEvaluator, timing every call and
/// recording each complete floorplan it is asked to score (the tape the
/// batch replays run over). Places and incremental queries are also timed
/// apart, in situ.
///
/// Bump assignment is timed in place: the callers assign a floorplan's
/// bumps just before they ask for its temperature, so every
/// `bump_stride`-th complete floorplan is assigned once more here, timed,
/// at the same point of the run and in the same heap. That time is kept
/// out of seconds() and reported by bump_seconds(), for the caller to take
/// out of its own leg time. Results are the inner evaluator's, untouched,
/// so a traced run scores exactly what an untraced run scores.
class LedgerEvaluator final : public rlplan::thermal::ThermalEvaluator {
 public:
  LedgerEvaluator(const rlplan::thermal::FastThermalModel& model,
                  std::size_t bump_stride);

  double max_temperature(const rlplan::ChipletSystem& system,
                         const rlplan::Floorplan& floorplan) override;
  std::vector<double> max_temperature_batch(
      const rlplan::ChipletSystem& system,
      std::span<const rlplan::Floorplan> floorplans,
      rlplan::parallel::ThreadPool* pool = nullptr) override;
  long num_evaluations() const override { return inner_->num_evaluations(); }
  std::string name() const override { return inner_->name(); }

  bool supports_incremental() const override { return true; }
  void notify_reset(const rlplan::ChipletSystem& system) override;
  void notify_place(const rlplan::ChipletSystem& system, std::size_t i,
                    const rlplan::Placement& p) override;
  void notify_remove(std::size_t i) override;
  void commit() override { inner_->commit(); }
  void rollback() override { inner_->rollback(); }
  double incremental_max_temperature(
      const rlplan::ChipletSystem& system,
      const rlplan::Floorplan& floorplan) override;

  double seconds() const { return seconds_; }
  long places() const { return places_; }
  double place_seconds() const { return place_s_; }
  long queries() const { return queries_; }
  double query_seconds() const { return query_s_; }
  long complete_floorplans() const { return complete_; }
  /// Timed BumpAssigner::assign calls and their wall seconds.
  long bump_calls() const { return bump_calls_; }
  double bump_seconds() const { return bump_s_; }
  long pair_updates() const;
  long sum_patches() const;
  FloorplanTape take_tape() { return std::move(tape_); }

 private:
  void record(const rlplan::ChipletSystem& system,
              const rlplan::Floorplan& floorplan);

  // Held through the heap, as the runner's TimedEvaluator holds it, so the
  // traced legs allocate as the untraced ones do.
  std::unique_ptr<rlplan::thermal::IncrementalFastModelEvaluator> inner_;
  FloorplanTape tape_;
  std::size_t bump_stride_;
  long complete_ = 0;
  long bump_calls_ = 0;
  double bump_s_ = 0.0;
  double seconds_ = 0.0;
  long places_ = 0;
  double place_s_ = 0.0;
  long queries_ = 0;
  double query_s_ = 0.0;
};

/// One leg's tape together with its model, for the replays.
struct Tape {
  const rlplan::ChipletSystem* system = nullptr;
  const rlplan::thermal::FastThermalModel* model = nullptr;
  FloorplanTape floorplans;
};

/// Calls and wall seconds of a replay.
struct Replay {
  long calls = 0;
  double seconds = 0.0;
  double us_per_call() const { return calls ? seconds * 1e6 / calls : 0.0; }
};

/// BumpAssigner::assign over every `stride`-th floorplan of `tape`, loaded
/// one at a time into one reused Floorplan.
Replay replay_bump(const Tape& tape, std::size_t stride);

/// Per-floorplan microseconds of FastThermalModel::evaluate and of
/// evaluate_batch (chunks of 64) over every `stride`-th floorplan.
struct FastEvalTimes {
  double eval_us = 0.0;
  double batch_eval_us = 0.0;
};
FastEvalTimes replay_fast_eval(const std::vector<Tape>& tapes,
                               std::size_t stride);

/// PolicyValueNet and PpoCore entry points at the rl_train network shape
/// (grid 12). `system`/`model` supply the environment for the PPO buffer.
struct NnTimes {
  double forward_b1_us = 0.0;
  double fwd_bwd_ms = 0.0;  ///< forward + backward at the PPO minibatch
  double gmac_per_s = 0.0;  ///< nominal MACs of that forward + backward
  double ppo_update_s = 0.0;
  double epoch_s = 0.0;     ///< collect 8 episodes + one PPO update
};
NnTimes time_nn(const rlplan::ChipletSystem& system,
                const rlplan::thermal::FastThermalModel& model,
                std::uint64_t seed);

/// Adds every ledger metric to `report` with a zero value, so each traced
/// run names the full ledger; workloads then overwrite what they measure.
void declare_ledger(Report& report);

/// Sets the nn / ppo / rl.epoch_s entries from `t`.
void report_nn(Report& report, const NnTimes& t, bool epoch_from_micro);

}  // namespace e2ebench
