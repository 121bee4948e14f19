#pragma once

#include <cstdint>
#include <vector>

#include "hwsim/node.hpp"
#include "ptf/tuner.hpp"

namespace ecotune::store {
class MeasurementStore;
}

namespace ecotune::tuners {

/// Hyperparameters of the online Q-learning tuner. All of them (plus the
/// seed) are part of the cached call's fingerprint: together with the
/// deterministic Rng they pin the entire episode schedule, so a warm store
/// replays the call's outcome with zero misses.
struct QLearningOptions {
  int episodes = 48;
  double alpha = 0.5;           ///< learning rate
  double gamma = 0.6;           ///< discount factor
  double epsilon0 = 1.0;        ///< initial exploration rate
  double epsilon_decay = 0.94;  ///< per-episode multiplicative decay
  double epsilon_min = 0.05;
  /// Episode runs use shortened phase loops (same economy as StaticTuner).
  int phase_iterations = 2;
  /// Thread-count axis of the state lattice.
  std::vector<int> thread_counts{12, 16, 20, 24};
  /// Grid-index stride per frequency action; lattices anchor at the grid
  /// maximum so the cluster-default configuration is always a state.
  int cf_step = 2;
  int ucf_step = 2;
  std::uint64_t seed = 0x9173A2;
  /// Optional persistent measurement store (not owned): memoizes each
  /// tune() call as one entry (best config, best measurement and total
  /// simulated tuning time), like GovernorTuner. Jobs-invariant (the walk
  /// is inherently serial).
  store::MeasurementStore* store = nullptr;
  /// Optional store task-key namespace
  /// ("qlearn/<app>/<key_scope>/qlearn-<call>"); see
  /// baseline::StaticTunerOptions::key_scope.
  std::string key_scope;
};

/// Online Q-learning self-tuning in the style of Gocht et al. (PAPERS.md):
/// no offline acquisition phase -- the tuner learns a state-action value
/// table while the application runs, walking the (threads, CF, UCF) lattice
/// one epsilon-greedy step per episode. Reward is the relative improvement
/// of the objective over the first (reference) episode. Every random draw
/// comes from task-keyed Rng forks (call tag + episode index), so results
/// are bitwise reproducible and trivially `--jobs` invariant.
class QLearningTuner final : public Tuner {
 public:
  QLearningTuner(hwsim::NodeSimulator& node, QLearningOptions options = {});

  [[nodiscard]] std::string_view name() const override { return "qlearn"; }
  [[nodiscard]] TuningOutcome tune(const TuningRequest& request) override;

 private:
  hwsim::NodeSimulator& node_;
  QLearningOptions options_;
  long tune_calls_ = 0;  ///< decorrelates noise across tune() calls
};

}  // namespace ecotune::tuners
