#include "ledger.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "bump/assigner.h"
#include "core/reward.h"
#include "nn/tensor.h"
#include "parallel/collector.h"
#include "rl/env.h"
#include "rl/policy_net.h"
#include "rl/ppo.h"
#include "util/rng.h"
#include "util/timer.h"

namespace e2ebench {

using rlplan::ChipletSystem;
using rlplan::Floorplan;
using rlplan::Placement;
using rlplan::Timer;

namespace {

// Address space reserved per tape; pages are touched only as they fill. The
// largest tape, a 64-die SA leg, holds about 200k placements.
constexpr std::size_t kTapePlacements = std::size_t{1} << 22;
static_assert(std::is_trivially_copyable_v<Placement>);

}  // namespace

FloorplanTape::FloorplanTape() {
  void* p = mmap(nullptr, kTapePlacements * sizeof(Placement),
                 PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<Placement*>(p);
}

FloorplanTape::~FloorplanTape() {
  if (data_) munmap(data_, kTapePlacements * sizeof(Placement));
}

FloorplanTape::FloorplanTape(FloorplanTape&& other) noexcept
    : data_(other.data_), used_(other.used_), dies_(other.dies_) {
  other.data_ = nullptr;
  other.used_ = other.dies_ = 0;
}

void FloorplanTape::record(const Floorplan& floorplan) {
  dies_ = floorplan.num_chiplets();
  if (used_ + dies_ > kTapePlacements) {
    throw std::length_error("floorplan tape is full");
  }
  for (std::size_t i = 0; i < dies_; ++i) {
    data_[used_++] = *floorplan.placement(i);
  }
}

void FloorplanTape::load(std::size_t k, Floorplan& floorplan) const {
  const Placement* p = data_ + k * dies_;
  for (std::size_t i = 0; i < dies_; ++i) {
    floorplan.place(i, p[i].position, p[i].rotated);
  }
}

LedgerEvaluator::LedgerEvaluator(
    const rlplan::thermal::FastThermalModel& model, std::size_t bump_stride)
    : inner_(std::make_unique<rlplan::thermal::IncrementalFastModelEvaluator>(
          model)),
      bump_stride_(bump_stride) {}

double LedgerEvaluator::max_temperature(const ChipletSystem& system,
                                        const Floorplan& floorplan) {
  record(system, floorplan);
  const Timer t;
  const double v = inner_->max_temperature(system, floorplan);
  seconds_ += t.seconds();
  return v;
}

std::vector<double> LedgerEvaluator::max_temperature_batch(
    const ChipletSystem& system, std::span<const Floorplan> floorplans,
    rlplan::parallel::ThreadPool* pool) {
  const Timer t;
  auto v = inner_->max_temperature_batch(system, floorplans, pool);
  seconds_ += t.seconds();
  return v;
}

void LedgerEvaluator::notify_reset(const ChipletSystem& system) {
  const Timer t;
  inner_->notify_reset(system);
  seconds_ += t.seconds();
}

void LedgerEvaluator::notify_place(const ChipletSystem& system, std::size_t i,
                                   const Placement& p) {
  const Timer t;
  inner_->notify_place(system, i, p);
  const double dt = t.seconds();
  seconds_ += dt;
  place_s_ += dt;
  ++places_;
}

void LedgerEvaluator::notify_remove(std::size_t i) {
  const Timer t;
  inner_->notify_remove(i);
  seconds_ += t.seconds();
}

double LedgerEvaluator::incremental_max_temperature(
    const ChipletSystem& system, const Floorplan& floorplan) {
  record(system, floorplan);
  ++queries_;
  const Timer t;
  const double v = inner_->incremental_max_temperature(system, floorplan);
  const double dt = t.seconds();
  seconds_ += dt;
  query_s_ += dt;
  return v;
}

long LedgerEvaluator::pair_updates() const {
  return inner_->state() ? inner_->state()->pair_updates() : 0;
}

long LedgerEvaluator::sum_patches() const {
  return inner_->state() ? inner_->state()->sum_patches() : 0;
}

void LedgerEvaluator::record(const ChipletSystem& system,
                             const Floorplan& floorplan) {
  if (!floorplan.is_complete()) return;
  tape_.record(floorplan);
  if (complete_++ % static_cast<long>(bump_stride_) == 0) {
    const Timer t;
    rlplan::bump::BumpAssigner{}.assign(system, floorplan);
    bump_s_ += t.seconds();
    ++bump_calls_;
  }
}

Replay replay_bump(const Tape& tape, std::size_t stride) {
  const rlplan::bump::BumpAssigner assigner;
  Floorplan floorplan(*tape.system);
  Replay out;
  for (std::size_t k = 0; k < tape.floorplans.size(); k += stride) {
    tape.floorplans.load(k, floorplan);
    const Timer t;
    assigner.assign(*tape.system, floorplan);
    out.seconds += t.seconds();
    ++out.calls;
  }
  return out;
}

FastEvalTimes replay_fast_eval(const std::vector<Tape>& tapes,
                               std::size_t stride) {
  FastEvalTimes out;
  double eval_s = 0.0;
  double batch_s = 0.0;
  long n = 0;
  for (const Tape& tape : tapes) {
    std::vector<Floorplan> sample;
    for (std::size_t k = 0; k < tape.floorplans.size(); k += stride) {
      sample.emplace_back(*tape.system);
      tape.floorplans.load(k, sample.back());
    }
    const Timer te;
    for (const Floorplan& fp : sample) {
      tape.model->evaluate(*tape.system, fp);
    }
    eval_s += te.seconds();
    const Timer tb;
    constexpr std::size_t kChunk = 64;
    for (std::size_t i = 0; i < sample.size(); i += kChunk) {
      const std::size_t len = std::min(kChunk, sample.size() - i);
      tape.model->evaluate_batch(
          *tape.system, std::span<const Floorplan>(sample).subspan(i, len));
    }
    batch_s += tb.seconds();
    n += static_cast<long>(sample.size());
  }
  if (n > 0) {
    out.eval_us = eval_s * 1e6 / static_cast<double>(n);
    out.batch_eval_us = batch_s * 1e6 / static_cast<double>(n);
  }
  return out;
}

namespace {

/// Nominal multiply-accumulates of one PolicyValueNet forward per sample:
/// every 3x3 tap of the three convolutions (padding included) plus the
/// three linear layers.
double forward_macs(const rlplan::rl::PolicyNetConfig& c) {
  const double g = static_cast<double>(c.grid);
  const double g2 = g / 2.0;
  const double g4 = g / 4.0;
  const double conv = g * g * c.conv1 * c.channels_in * 9.0 +
                      g2 * g2 * c.conv2 * c.conv1 * 9.0 +
                      g4 * g4 * c.conv3 * c.conv2 * 9.0;
  const double fc = c.conv3 * g4 * g4 * c.fc + c.fc * g * g + c.fc * 1.0;
  return conv + fc;
}

void fill_uniform(rlplan::nn::Tensor& t, rlplan::Rng& rng) {
  for (float& v : t.data()) v = static_cast<float>(rng.uniform());
}

}  // namespace

NnTimes time_nn(const ChipletSystem& system,
                const rlplan::thermal::FastThermalModel& model,
                std::uint64_t seed) {
  namespace rl = rlplan::rl;
  namespace nn = rlplan::nn;
  NnTimes out;
  rl::PolicyNetConfig cfg;
  cfg.grid = 12;
  const std::size_t g = cfg.grid;
  const std::size_t minibatch = rl::PpoConfig{}.minibatch;

  rlplan::Rng rng(seed);
  rl::PolicyValueNet net(cfg, rng);
  nn::Tensor x1({1, cfg.channels_in, g, g});
  fill_uniform(x1, rng);
  constexpr int kForwards = 400;
  for (int i = 0; i < 20; ++i) net.forward(x1);
  const Timer tf;
  for (int i = 0; i < kForwards; ++i) net.forward(x1);
  out.forward_b1_us = tf.seconds() * 1e6 / kForwards;

  nn::Tensor xb({minibatch, cfg.channels_in, g, g});
  fill_uniform(xb, rng);
  const nn::Tensor grad_logits = nn::Tensor::full({minibatch, g * g}, 1e-3f);
  const nn::Tensor grad_value = nn::Tensor::full({minibatch, 1}, 1e-3f);
  constexpr int kPasses = 12;
  const Timer tb;
  for (int i = 0; i < kPasses; ++i) {
    net.forward(xb);
    net.zero_grad();
    net.backward(grad_logits, grad_value);
  }
  const double fb_s = tb.seconds() / kPasses;
  out.fwd_bwd_ms = fb_s * 1e3;
  // Backward computes the input and weight gradients: twice the forward.
  out.gmac_per_s = 3.0 * forward_macs(cfg) * minibatch / fb_s * 1e-9;

  // PPO: a buffer of 8 episodes collected through the public env/net API,
  // then one PpoCore::update, on fresh cores so every sample does the same
  // work; medians of three.
  rlplan::thermal::IncrementalFastModelEvaluator evaluator(model);
  rl::EnvConfig env_config;
  env_config.grid = g;
  rl::FloorplanEnv env(system, evaluator, rlplan::RewardCalculator{},
                       rlplan::bump::BumpAssigner{}, env_config);
  std::vector<double> update_s;
  std::vector<double> epoch_s;
  for (int rep = 0; rep < 3; ++rep) {
    rl::PpoConfig pc;
    pc.episodes_per_update = 8;
    pc.seed = seed + static_cast<std::uint64_t>(rep);
    rl::PpoCore core(cfg, pc);
    rlplan::Rng action_rng(seed ^ 0x5eedULL);
    rl::RolloutBuffer buffer;
    const rlplan::parallel::EnvSlot slot{&env, &action_rng};
    const Timer tc;
    rlplan::parallel::collect_episodes(
        {&slot, 1}, core.net(), 8, buffer, nullptr,
        [&core](std::size_t, const rl::StepOutcome& o) {
          core.record_episode_reward(o.reward);
        });
    core.fill_intrinsic(buffer);
    const double collect_s = tc.seconds();
    rl::TrainStats stats;
    const Timer tu;
    core.update(buffer, stats);
    update_s.push_back(tu.seconds());
    epoch_s.push_back(collect_s + update_s.back());
  }
  out.ppo_update_s = median(update_s);
  out.epoch_s = median(epoch_s);
  return out;
}

void declare_ledger(Report& r) {
  static const char* const kMetrics[][2] = {
      {"sa.proposals", "count"},          {"sa.evaluations", "count"},
      {"sa.legal_ratio", "1"},            {"sa.accept_ratio", "1"},
      {"sa.other_share", "1"},            {"bump.calls", "count"},
      {"bump.assign_us", "us"},           {"bump.share", "1"},
      {"thermal.incr.queries", "count"},  {"thermal.pair_updates", "count"},
      {"thermal.sum_patches", "count"},   {"thermal.incr.place_us", "us"},
      {"thermal.incr.query_us", "us"},    {"thermal.share", "1"},
      {"thermal.eval_us", "us"},          {"thermal.batch_eval_us", "us"},
      {"thermal.truth_ms", "ms"},         {"thermal.cg_iters", "count"},
      {"thermal.cg_fallbacks", "count"},  {"thermal.speedup_x", "x"},
      {"thermal.characterize_s", "s"},    {"thermal.probe_solves", "count"},
      {"thermal.mae_k", "K"},             {"thermal.max_err_k", "K"},
      {"rl.epoch_s", "s"},                {"rl.env_steps", "count"},
      {"rl.episodes", "count"},           {"rl.dead_end_ratio", "1"},
      {"nn.forward_b1_us", "us"},         {"nn.fwd_bwd_ms", "ms"},
      {"nn.gmac_per_s", "GMAC/s"},        {"ppo.update_s", "s"},
      {"serve.overhead_share", "1"},      {"cold.first_pass_s", "s"},
      {"alloc.first_pass_faults", "count"},
      {"alloc.pass_faults", "count"},
      {"result.objective", "1"},          {"trace.overhead_pct", "%"},
  };
  for (const auto& m : kMetrics) r.set(m[0], 0.0, m[1]);
}

void report_nn(Report& r, const NnTimes& t, bool epoch_from_micro) {
  r.set("nn.forward_b1_us", t.forward_b1_us, "us");
  r.set("nn.fwd_bwd_ms", t.fwd_bwd_ms, "ms");
  r.set("nn.gmac_per_s", t.gmac_per_s, "GMAC/s");
  r.set("ppo.update_s", t.ppo_update_s, "s");
  if (epoch_from_micro) r.set("rl.epoch_s", t.epoch_s, "s");
}

}  // namespace e2ebench
