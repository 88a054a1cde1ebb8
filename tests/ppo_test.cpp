// PPO training through the one training engine: single-task,
// one-replica TrainingSession runs (rl/session.h) over a cheap proxy
// evaluator.
#include "rl/ppo.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rl/session.h"
#include "thermal/evaluator.h"

namespace rlplan::rl {
namespace {

// Cheap geometric evaluator (compactness ~ heat) so PPO tests avoid
// characterization entirely.
class ProxyEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    ++count_;
    double worst = 45.0;
    const auto rects = floorplan.placed_rects();
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (!rects[i]) continue;
      double t = 45.0 + 1.2 * system.chiplet(i).power;
      for (std::size_t j = 0; j < rects.size(); ++j) {
        if (j == i || !rects[j]) continue;
        const double d = center_distance(*rects[i], *rects[j]);
        t += system.chiplet(j).power / (1.0 + 0.3 * d);
      }
      worst = std::max(worst, t);
    }
    return worst;
  }
  long num_evaluations() const override { return count_; }
  std::string name() const override { return "proxy"; }

 private:
  long count_ = 0;
};

ChipletSystem tiny_system() {
  return ChipletSystem("ppo", 24.0, 24.0,
                       {{"a", 8.0, 8.0, 25.0},
                        {"b", 6.0, 6.0, 12.0},
                        {"c", 5.0, 5.0, 8.0}},
                       {{0, 1, 64}, {1, 2, 32}, {0, 2, 16}});
}

PpoConfig small_ppo(std::uint64_t seed) {
  PpoConfig config;
  config.episodes_per_update = 6;
  config.minibatch = 16;
  config.seed = seed;
  return config;
}

PolicyNetConfig tiny_net() {
  PolicyNetConfig config;
  config.conv1 = 4;
  config.conv2 = 4;
  config.conv3 = 4;
  config.fc = 32;
  return config;
}

/// A one-task session at grid 12; the session seed is the PPO config's, so
/// every stream derives from `ppo.seed` (util/rng.h).
TrainingSession make_session(const ChipletSystem& sys, const PpoConfig& ppo) {
  TrainingSessionConfig config;
  config.env.grid = 12;
  config.net = tiny_net();
  config.ppo = ppo;
  config.seed = ppo.seed;
  std::vector<SessionTask> tasks;
  tasks.push_back({"ppo", &sys, std::make_unique<ProxyEvaluator>()});
  return TrainingSession(config, std::move(tasks));
}

TEST(PpoTraining, TrainEpochProducesStats) {
  const auto sys = tiny_system();
  TrainingSession session = make_session(sys, small_ppo(3));
  const TrainStats stats = session.train_epoch();
  EXPECT_EQ(stats.episodes, 6u);
  EXPECT_EQ(stats.steps, 18u);  // 3 placements per episode
  EXPECT_LT(stats.mean_reward, 0.0);
  EXPECT_GT(stats.entropy, 0.0);
  EXPECT_GT(session.total_env_steps(), 0);
}

TEST(PpoTraining, TracksBestFloorplan) {
  const auto sys = tiny_system();
  TrainingSession session = make_session(sys, small_ppo(4));
  EXPECT_FALSE(session.has_best(0));
  EXPECT_THROW(session.best_floorplan(0), std::logic_error);
  session.train_epoch();
  ASSERT_TRUE(session.has_best(0));
  EXPECT_TRUE(session.best_floorplan(0).is_complete());
  EXPECT_TRUE(session.best_metrics(0).valid);
  // Best must be at least as good as any epoch's mean.
  const TrainStats s2 = session.train_epoch();
  EXPECT_GE(session.best_metrics(0).reward, s2.mean_reward - 1e-9);
}

TEST(PpoTraining, DeterministicGivenSeed) {
  const auto sys = tiny_system();
  auto run = [&](std::uint64_t seed) {
    TrainingSession session = make_session(sys, small_ppo(seed));
    return session.train_epoch().mean_reward;
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(PpoTraining, LearnsOnTinyProblem) {
  // Mean reward over late epochs should beat the first epoch meaningfully.
  const auto sys = tiny_system();
  PpoConfig config = small_ppo(5);
  config.episodes_per_update = 10;
  config.adam.lr = 1e-3f;
  TrainingSession session = make_session(sys, config);
  const double first = session.train_epoch().mean_reward;
  double late = 0.0;
  const int total = 12;
  double best_mean = first;
  for (int i = 1; i < total; ++i) {
    late = session.train_epoch().mean_reward;
    best_mean = std::max(best_mean, late);
  }
  EXPECT_GT(best_mean, first) << "PPO never improved over its first epoch";
}

TEST(PpoTraining, GreedyEpisodeReturnsValidMetrics) {
  const auto sys = tiny_system();
  TrainingSession session = make_session(sys, small_ppo(6));
  session.train_epoch();
  const EpisodeMetrics m = session.greedy_episode(0);
  EXPECT_TRUE(m.valid);
  EXPECT_LT(m.reward, 0.0);
  EXPECT_GT(m.wirelength_mm, 0.0);
}

TEST(PpoTraining, RndVariantRuns) {
  const auto sys = tiny_system();
  PpoConfig config = small_ppo(9);
  config.use_rnd = true;
  TrainingSession session = make_session(sys, config);
  const TrainStats stats = session.train_epoch();
  EXPECT_GT(stats.rnd_error, 0.0) << "RND predictor error should be nonzero";
  // Intrinsic rewards must have been recorded.
  const TrainStats stats2 = session.train_epoch();
  EXPECT_GE(stats2.episodes, 1u);
}

TEST(PpoTraining, RewardNormalizationToggleBothRun) {
  const auto sys = tiny_system();
  for (bool normalize : {true, false}) {
    PpoConfig config = small_ppo(10);
    config.normalize_rewards = normalize;
    TrainingSession session = make_session(sys, config);
    EXPECT_NO_THROW(session.train_epoch());
  }
}

}  // namespace
}  // namespace rlplan::rl
