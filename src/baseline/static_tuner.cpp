#include "baseline/static_tuner.hpp"

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

StaticTuner::StaticTuner(hwsim::NodeSimulator& node,
                         StaticTunerOptions options)
    : node_(node), options_(options) {}

StaticTuningResult StaticTuner::tune(const workload::Benchmark& app,
                                     const ptf::TuningObjective& objective) {
  const auto& spec = node_.spec();
  const workload::Benchmark short_app =
      app.with_iterations(options_.phase_iterations);

  // Materialize the searched lattice in sweep order (threads, CF, UCF).
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
  ensure(!configs.empty(), "StaticTuner::tune: empty search space");

  // Evaluate every configuration on its own node clone with jitter keyed
  // by (tune() call, config index), so the sweep parallelizes without
  // changing any result and repeated tune() calls draw fresh noise.
  const std::string call_key = "static-tuner-" + std::to_string(tune_calls_++);
  struct Evaluated {
    StaticPoint point;
    Seconds elapsed{0};
  };
  std::vector<Evaluated> evaluated;

  // The whole sweep is one store entry: its fingerprint pins node state,
  // app, call and every lattice point, and the payload holds one column
  // per field with a value per point in sweep order.
  store::MeasurementStore* cache =
      options_.store != nullptr && options_.store->enabled() ? options_.store
                                                             : nullptr;
  store::MeasurementKey cache_key;
  if (cache != nullptr) {
    Fingerprint fp;
    fp.add_digest("node", node_.state_fingerprint())
        .add_digest("app", short_app.fingerprint_digest())
        .add("call", call_key);
    for (const SystemConfig& c : configs) fp.add("config", c);
    cache_key.task =
        "static/" + app.name() +
        (options_.key_scope.empty() ? "" : "/" + options_.key_scope) + "/" +
        call_key;
    cache_key.fingerprint = fp.digest();
    if (const auto hit = cache->lookup(cache_key)) {
      try {
        const auto n = configs.size();
        const auto& node_energy = store::sweep_column(*hit, "node_energy", n);
        const auto& cpu_energy = store::sweep_column(*hit, "cpu_energy", n);
        const auto& time = store::sweep_column(*hit, "time", n);
        const auto& elapsed = store::sweep_column(*hit, "elapsed", n);
        evaluated.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          Evaluated& e = evaluated[i];
          e.point.config = configs[i];
          e.point.node_energy = Joules(node_energy[i].as_number());
          e.point.cpu_energy = Joules(cpu_energy[i].as_number());
          e.point.time = Seconds(time[i].as_number());
          e.elapsed = Seconds(elapsed[i].as_number());
        }
      } catch (const std::exception& ex) {
        log::error("store")
            << "undecodable cache payload for '" << cache_key.task << "' ("
            << ex.what() << "); re-simulating";
        evaluated.clear();
      }
    }
  }

  if (evaluated.empty()) {
    evaluated = parallel_map_ordered(
        configs.size(),
        [&](std::size_t i) {
          const std::string noise_key = call_key + "-" + std::to_string(i);
          Evaluated e;
          e.point.config = configs[i];
          hwsim::NodeSimulator node = node_.clone(noise_key);
          const Seconds t0 = node.now();
          const auto run =
              instr::run_uninstrumented(short_app, node, e.point.config);
          e.point.node_energy = run.node_energy;
          e.point.cpu_energy = run.cpu_energy;
          e.point.time = run.wall_time;
          e.elapsed = node.now() - t0;
          return e;
        },
        options_.jobs);
    if (cache != nullptr) {
      Json::Array node_energy, cpu_energy, time, elapsed;
      for (auto* column : {&node_energy, &cpu_energy, &time, &elapsed})
        column->reserve(evaluated.size());
      for (const Evaluated& e : evaluated) {
        node_energy.emplace_back(e.point.node_energy.value());
        cpu_energy.emplace_back(e.point.cpu_energy.value());
        time.emplace_back(e.point.time.value());
        elapsed.emplace_back(e.elapsed.value());
      }
      Json payload = Json::object();
      payload["node_energy"] = std::move(node_energy);
      payload["cpu_energy"] = std::move(cpu_energy);
      payload["time"] = std::move(time);
      payload["elapsed"] = std::move(elapsed);
      cache->insert(cache_key, std::move(payload));
    }
  }

  // Ordered reduce in sweep order: first strict improvement wins, exactly
  // as the serial loop selected.
  StaticTuningResult result;
  double best_score = std::numeric_limits<double>::max();
  Seconds total{0};
  for (const auto& e : evaluated) {
    ++result.runs;
    ptf::Measurement m;
    m.node_energy = e.point.node_energy;
    m.cpu_energy = e.point.cpu_energy;
    m.time = e.point.time;
    m.count = 1;
    const double score = objective.evaluate(m);
    if (score < best_score) {
      best_score = score;
      result.best = e.point.config;
      result.best_point = e.point;
    }
    result.evaluated.push_back(e.point);
    total += e.elapsed;
  }
  result.search_time = total;
  // The clones consumed simulated time off the parent's timeline; put it
  // back so downstream accounting (now() deltas) stays meaningful.
  node_.idle(total);
  return result;
}

TuningOutcome StaticTuner::tune(const TuningRequest& request) {
  const auto objective = ptf::make_objective(request.objective);
  const StaticTuningResult result = tune(request.app, *objective);
  TuningOutcome out;
  out.tuner = std::string(name());
  out.objective = std::string(objective->name());
  out.best = result.best;
  out.scenarios_evaluated = result.runs;
  out.app_runs = result.runs;
  out.tuning_time = result.search_time;
  out.best_measurement.node_energy = result.best_point.node_energy;
  out.best_measurement.cpu_energy = result.best_point.cpu_energy;
  out.best_measurement.time = result.best_point.time;
  out.best_measurement.count = 1;
  return out;
}

}  // namespace ecotune::baseline
