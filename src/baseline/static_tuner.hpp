#pragma once

#include <vector>

#include "common/config.hpp"
#include "hwsim/node.hpp"
#include "ptf/objectives.hpp"
#include "ptf/tuner.hpp"
#include "workload/benchmark.hpp"

namespace ecotune::store {
class MeasurementStore;
}

namespace ecotune::baseline {

/// Options of the whole-application (static) configuration search.
struct StaticTunerOptions {
  std::vector<int> thread_counts{12, 16, 20, 24};
  /// Stride over the frequency grids (1 = exhaustive, paper Table V).
  int cf_stride = 1;
  int ucf_stride = 1;
  /// Search runs use shortened phase loops.
  int phase_iterations = 2;
  /// Concurrent configuration evaluations, each on its own node clone
  /// (1 = serial, 0 = hardware concurrency). Results are identical for any
  /// value: per-config jitter streams are keyed by sweep index and the
  /// winner is reduced in sweep order.
  int jobs = 1;
  /// Optional persistent measurement store (not owned). Each tune() call is
  /// one entry holding every evaluated point, answered from a previous
  /// session when benchmark, call, lattice, and node-state fingerprint
  /// match. Jobs-invariant.
  store::MeasurementStore* store = nullptr;
  /// Optional store task-key namespace
  /// ("static/<app>/<key_scope>/static-tuner-<call>"). Concurrent searches
  /// over the same benchmark (service requests, rows of one evaluation)
  /// must carry distinct scopes or their sweep entries collide on
  /// identical task ids and ping-pong-invalidate each other.
  std::string key_scope;
};

/// One evaluated configuration.
struct StaticPoint {
  SystemConfig config;
  Joules node_energy{0};
  Joules cpu_energy{0};
  Seconds time{0};
};

/// Search result.
struct StaticTuningResult {
  SystemConfig best;
  StaticPoint best_point;
  long runs = 0;
  Seconds search_time{0};
  std::vector<StaticPoint> evaluated;  ///< every point, search order
};

/// The static-tuning baseline of paper Sec. V-D / Table V: run the whole
/// (uninstrumented) application at every (threads, CF, UCF) combination and
/// keep the configuration minimizing the objective. The best static
/// configuration equals the best phase-region configuration. With a store,
/// a tune() call costs one lookup and, on a miss, one insert: the sweep's
/// points are stored together as one entry, in sweep order.
class StaticTuner final : public Tuner {
 public:
  StaticTuner(hwsim::NodeSimulator& node, StaticTunerOptions options = {});

  [[nodiscard]] StaticTuningResult tune(
      const workload::Benchmark& app,
      const ptf::TuningObjective& objective = ptf::EnergyObjective{});

  /// Tuner interface: runs the same search and reports the strategy-agnostic
  /// outcome (best config = the winning static point).
  [[nodiscard]] std::string_view name() const override { return "static"; }
  [[nodiscard]] TuningOutcome tune(const TuningRequest& request) override;

 private:
  hwsim::NodeSimulator& node_;
  StaticTunerOptions options_;
  long tune_calls_ = 0;  ///< decorrelates noise across tune() calls
};

}  // namespace ecotune::baseline
