#pragma once

#include <map>
#include <string>
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

/// Options of the exhaustive per-region search.
struct ExhaustiveTunerOptions {
  std::vector<int> thread_counts{12, 16, 20, 24};
  int cf_stride = 1;
  int ucf_stride = 1;
  /// Concurrent full-application runs, each on its own node clone
  /// (1 = serial, 0 = hardware concurrency); output is identical for any
  /// value.
  int jobs = 1;
  /// Optional persistent measurement store (not owned). Each tune() call is
  /// one entry holding every full-application run of the sweep, answered
  /// from a previous session when benchmark, call, lattice, and node-state
  /// fingerprint match. Jobs-invariant by construction.
  store::MeasurementStore* store = nullptr;
  /// Optional store task-key namespace
  /// ("exhaustive/<app>/<key_scope>/exhaustive-tuner-<call>"); see
  /// StaticTunerOptions::key_scope.
  std::string key_scope;
};

/// Search result with both the actual simulated cost and the paper's cost
/// formula for the approach of Sourouri et al. [7] (n x k x l x m full
/// application runs, Sec. V-C).
struct ExhaustiveTuningResult {
  std::map<std::string, SystemConfig> region_best;
  SystemConfig app_best;
  long runs = 0;                 ///< full application runs performed
  Seconds search_time{0};        ///< simulated wall time of the search
  double formula_runs = 0;       ///< n * k * l * m (paper's accounting)
  Seconds formula_time{0};       ///< formula_runs * t(one run)
};

/// The exhaustive dynamic-tuning baseline (Sourouri et al., SC'17): every
/// region is manually instrumented and the full (threads x CF x UCF) space
/// is searched with whole-application runs -- no significant-region
/// filtering, no model-based search-space reduction. Used for the
/// tuning-time comparison of paper Sec. V-C. With a store, a tune() call is
/// one entry: every run's app and per-region measurements, in sweep order.
class ExhaustiveTuner final : public Tuner {
 public:
  ExhaustiveTuner(hwsim::NodeSimulator& node,
                  ExhaustiveTunerOptions options = {});

  [[nodiscard]] ExhaustiveTuningResult tune(
      const workload::Benchmark& app,
      const ptf::TuningObjective& objective = ptf::EnergyObjective{});

  /// Tuner interface: same search, strategy-agnostic outcome (best config =
  /// the whole-app winner; region_best carries the per-region winners).
  [[nodiscard]] std::string_view name() const override { return "exhaustive"; }
  [[nodiscard]] TuningOutcome tune(const TuningRequest& request) override;

 private:
  hwsim::NodeSimulator& node_;
  ExhaustiveTunerOptions options_;
  long tune_calls_ = 0;  ///< decorrelates noise across tune() calls
};

}  // namespace ecotune::baseline
