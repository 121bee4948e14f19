#include "baseline/exhaustive_tuner.hpp"

#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "instr/scorep_runtime.hpp"
#include "store/measurement_store.hpp"
#include "store/serdes.hpp"

namespace ecotune::baseline {
namespace {

/// Collects per-region measurements of one manually instrumented run.
class RegionCollector final : public instr::RegionListener {
 public:
  void on_exit(const instr::RegionExit& e) override {
    if (e.type == instr::RegionType::kPhase) return;
    auto& m = measurements_[std::string(e.region)];
    m.node_energy += e.node_energy;
    m.cpu_energy += e.cpu_energy;
    m.time += e.duration();
    m.count += 1;
  }

  [[nodiscard]] const std::map<std::string, ptf::Measurement>& measurements()
      const {
    return measurements_;
  }

 private:
  std::map<std::string, ptf::Measurement> measurements_;
};

}  // namespace

ExhaustiveTuner::ExhaustiveTuner(hwsim::NodeSimulator& node,
                                 ExhaustiveTunerOptions options)
    : node_(node), options_(options) {}

ExhaustiveTuningResult ExhaustiveTuner::tune(
    const workload::Benchmark& app, const ptf::TuningObjective& objective) {
  const auto& spec = node_.spec();

  // The full (threads x CF x UCF) lattice in sweep order.
  std::vector<SystemConfig> configs;
  for (int threads : options_.thread_counts) {
    for (std::size_t ci = 0; ci < spec.core_grid.size();
         ci += static_cast<std::size_t>(options_.cf_stride)) {
      for (std::size_t ui = 0; ui < spec.uncore_grid.size();
           ui += static_cast<std::size_t>(options_.ucf_stride)) {
        configs.push_back(SystemConfig{threads, spec.core_grid.at(ci),
                                       spec.uncore_grid.at(ui)});
      }
    }
  }
  ensure(!configs.empty(), "ExhaustiveTuner::tune: empty search space");

  // Manual instrumentation of every region (Sourouri et al. annotate each
  // region by hand): full instrumentation, full application run. Each
  // configuration runs on a node clone with jitter keyed by (tune() call,
  // config index) so the sweep parallelizes deterministically and repeated
  // tune() calls draw fresh noise.
  const std::string call_key =
      "exhaustive-tuner-" + std::to_string(tune_calls_++);
  struct RunOutcome {
    ptf::Measurement app;
    std::map<std::string, ptf::Measurement> regions;
    Seconds wall_time{0};
    Seconds elapsed{0};
  };
  std::vector<RunOutcome> outcomes;

  // One store entry per sweep (see StaticTuner::tune): the fingerprint pins
  // node state, app, call and every lattice point; each payload field is a
  // column with one value per point in sweep order.
  store::MeasurementStore* cache =
      options_.store != nullptr && options_.store->enabled() ? options_.store
                                                             : nullptr;
  store::MeasurementKey cache_key;
  if (cache != nullptr) {
    Fingerprint fp;
    fp.add_digest("node", node_.state_fingerprint())
        .add_digest("app", app.fingerprint_digest())
        .add("call", call_key);
    for (const SystemConfig& c : configs) fp.add("config", c);
    cache_key.task =
        "exhaustive/" + app.name() +
        (options_.key_scope.empty() ? "" : "/" + options_.key_scope) + "/" +
        call_key;
    cache_key.fingerprint = fp.digest();
    if (const auto hit = cache->lookup(cache_key)) {
      try {
        const auto n = configs.size();
        const auto& apps = store::sweep_column(*hit, "app", n);
        const auto& regions = store::sweep_column(*hit, "regions", n);
        const auto& wall_time = store::sweep_column(*hit, "wall_time", n);
        const auto& elapsed = store::sweep_column(*hit, "elapsed", n);
        outcomes.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          RunOutcome& out = outcomes[i];
          out.app = ptf::measurement_from_json(apps[i]);
          for (const auto& [region, m] : regions[i].as_object())
            out.regions[region] = ptf::measurement_from_json(m);
          // Every fully instrumented run measures all of the app's
          // regions; fewer means the payload is from another schema.
          ensure(out.regions.size() == app.regions().size(),
                 "payload covers a different region set");
          out.wall_time = Seconds(wall_time[i].as_number());
          out.elapsed = Seconds(elapsed[i].as_number());
        }
      } catch (const std::exception& e) {
        log::error("store")
            << "undecodable cache payload for '" << cache_key.task << "' ("
            << e.what() << "); re-simulating";
        outcomes.clear();
      }
    }
  }

  if (outcomes.empty()) {
    outcomes = parallel_map_ordered(
        configs.size(),
        [&](std::size_t i) {
          hwsim::NodeSimulator node =
              node_.clone(call_key + "-" + std::to_string(i));
          const Seconds t0 = node.now();
          instr::ExecutionContext ctx(node);
          ctx.apply(configs[i]);
          RegionCollector collector;
          instr::ScorepRuntime runtime(
              app, instr::InstrumentationFilter::instrument_all());
          runtime.add_listener(&collector);
          const auto run = runtime.execute(ctx);

          RunOutcome out;
          out.app.node_energy = run.node_energy;
          out.app.cpu_energy = run.cpu_energy;
          out.app.time = run.wall_time;
          out.app.count = 1;
          out.regions = collector.measurements();
          out.wall_time = run.wall_time;
          out.elapsed = node.now() - t0;
          return out;
        },
        options_.jobs);
    if (cache != nullptr) {
      Json::Array apps, regions, wall_time, elapsed;
      for (auto* column : {&apps, &regions, &wall_time, &elapsed})
        column->reserve(outcomes.size());
      for (const RunOutcome& out : outcomes) {
        apps.push_back(ptf::to_json(out.app));
        Json run_regions = Json::object();
        for (const auto& [region, m] : out.regions)
          run_regions[region] = ptf::to_json(m);
        regions.push_back(std::move(run_regions));
        wall_time.emplace_back(out.wall_time.value());
        elapsed.emplace_back(out.elapsed.value());
      }
      Json payload = Json::object();
      payload["app"] = std::move(apps);
      payload["regions"] = std::move(regions);
      payload["wall_time"] = std::move(wall_time);
      payload["elapsed"] = std::move(elapsed);
      cache->insert(cache_key, std::move(payload));
    }
  }

  // Ordered reduce in sweep order (first strict improvement wins).
  ExhaustiveTuningResult result;
  std::map<std::string, double> best_scores;
  double best_app_score = std::numeric_limits<double>::max();
  Seconds one_run_time{0};
  Seconds total{0};
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& out = outcomes[i];
    ++result.runs;
    if (one_run_time.value() == 0) one_run_time = out.wall_time;
    if (objective.evaluate(out.app) < best_app_score) {
      best_app_score = objective.evaluate(out.app);
      result.app_best = configs[i];
    }
    for (const auto& [region, m] : out.regions) {
      const double score = objective.evaluate(m);
      auto it = best_scores.find(region);
      if (it == best_scores.end() || score < it->second) {
        best_scores[region] = score;
        result.region_best[region] = configs[i];
      }
    }
    total += out.elapsed;
  }
  result.search_time = total;
  node_.idle(total);

  // Paper formula: n regions x k x l x m configurations, one full run each.
  const double n = static_cast<double>(result.region_best.size());
  const double klm = static_cast<double>(result.runs);
  result.formula_runs = n * klm;
  result.formula_time = one_run_time * result.formula_runs;
  return result;
}

TuningOutcome ExhaustiveTuner::tune(const TuningRequest& request) {
  const auto objective = ptf::make_objective(request.objective);
  const ExhaustiveTuningResult result = tune(request.app, *objective);
  TuningOutcome out;
  out.tuner = std::string(name());
  out.objective = std::string(objective->name());
  out.best = result.app_best;
  out.region_best = result.region_best;
  out.scenarios_evaluated = result.runs;
  out.app_runs = result.runs;
  out.tuning_time = result.search_time;
  return out;
}

}  // namespace ecotune::baseline
