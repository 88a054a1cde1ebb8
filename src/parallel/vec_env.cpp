#include "parallel/vec_env.h"

#include <stdexcept>

namespace rlplan::parallel {

VecEnv::VecEnv(const ChipletSystem& system,
               thermal::ThermalEvaluator& evaluator,
               RewardCalculator reward_calc, bump::BumpAssigner assigner,
               rl::EnvConfig env_config, std::size_t num_envs,
               std::uint64_t seed)
    : seed_(seed) {
  // The upper bound catches size_t underflow from negative inputs before it
  // reaches vector::reserve as an opaque length_error.
  if (num_envs == 0 || num_envs > kMaxEnvs) {
    throw std::invalid_argument("VecEnv: num_envs must be in [1, " +
                                std::to_string(kMaxEnvs) + "]");
  }
  clones_.reserve(num_envs - 1);
  evaluators_.reserve(num_envs);
  envs_.reserve(num_envs);
  rngs_.reserve(num_envs);
  evaluators_.push_back(&evaluator);
  for (std::size_t i = 1; i < num_envs; ++i) {
    auto clone = evaluator.clone();
    if (!clone) {
      throw std::invalid_argument("VecEnv: evaluator '" + evaluator.name() +
                                  "' does not support clone()");
    }
    evaluators_.push_back(clone.get());
    clones_.push_back(std::move(clone));
  }
  for (std::size_t i = 0; i < num_envs; ++i) {
    envs_.push_back(std::make_unique<rl::FloorplanEnv>(
        system, *evaluators_[i], reward_calc, assigner, env_config));
    rngs_.emplace_back(derive_seed(seed, i));
  }
}

std::vector<EnvSlot> VecEnv::slots() {
  std::vector<EnvSlot> out;
  out.reserve(envs_.size());
  for (std::size_t i = 0; i < envs_.size(); ++i) {
    out.push_back({envs_[i].get(), &rngs_[i]});
  }
  return out;
}

std::uint64_t VecEnv::derive_seed(std::uint64_t base, std::size_t index) {
  return derive_substream_seed(base, index);
}

}  // namespace rlplan::parallel
