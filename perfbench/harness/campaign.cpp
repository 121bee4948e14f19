// Campaign phase: the 19-benchmark design-time analysis campaign that
// ecotune_dta runs, untraced as one timed block or traced per public call.
#include <filesystem>
#include <sstream>
#include <utility>

#include "api/report.hpp"
#include "api/session.hpp"
#include "harness.hpp"
#include "model/energy_model.hpp"

namespace perfbench {
namespace {

using ecotune::Json;
namespace api = ecotune::api;

api::SessionConfig session_config(const CampaignInputs& in, int jobs,
                                  const std::string& cache_dir) {
  // The ecotune_dta configuration: same scope, so a campaign's store file
  // is exactly the one `ecotune_dta --cache-dir` would write.
  return api::SessionConfig{}
      .seed(in.seed)
      .jobs(jobs)
      .cache(cache_dir, cache_dir.empty() ? "off" : "rw")
      .scope("ecotune_dta");
}

void record_store(api::Session& session, const std::string& cache_dir,
                  CampaignRun& run) {
  auto& store = session.store();
  run.stats = store.stats();
  run.entries = store.size();
  if (!cache_dir.empty()) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(
        std::filesystem::path(cache_dir) / "measurements.jsonl", ec);
    run.file_bytes = ec ? 0 : bytes;
  }
}

Json delta_json(const ecotune::store::StoreStats& before,
                const ecotune::store::StoreStats& after) {
  ecotune::store::StoreStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.invalidated = after.invalidated - before.invalidated;
  d.rejected = after.rejected - before.rejected;
  d.writes = after.writes - before.writes;
  return stats_json(d);
}

}  // namespace

Json stats_json(const ecotune::store::StoreStats& s) {
  Json j = Json::object();
  j["hits"] = s.hits;
  j["misses"] = s.misses;
  j["invalidated"] = s.invalidated;
  j["rejected"] = s.rejected;
  j["writes"] = s.writes;
  return j;
}

CampaignRun run_campaign(const CampaignInputs& in, int jobs,
                         const std::string& cache_dir) {
  CampaignRun run;
  std::ostringstream os;
  const std::int64_t t0 = now_ns();
  {
    api::Session session(session_config(in, jobs, cache_dir));
    api::TextReportSink sink(os);
    sink.training_started(session.config().epochs());
    session.train_model();
    const api::CampaignReport campaign = session.run_dta_campaign(in.apps);
    for (const auto& report : campaign.reports) sink.dta(report);
    sink.close();
    record_store(session, cache_dir, run);
  }
  run.ms = ms_between(t0, now_ns());
  run.text = os.str();
  return run;
}

CampaignRun run_campaign_traced(const CampaignInputs& in, int jobs,
                                const std::string& cache_dir, Tracer& tracer,
                                const std::string& label) {
  CampaignRun run;
  std::ostringstream os;
  const std::int64_t t0 = now_ns();
  const int root = tracer.begin(label, -1);
  {
    int span = tracer.begin("api.session_open", root);
    api::Session session(session_config(in, jobs, cache_dir));
    ecotune::store::StoreStats before = session.store().stats();
    tracer.end(span, stats_json(before));

    span = tracer.begin("model.acquire", root);
    const ecotune::model::EnergyDataset dataset = session.acquire_dataset();
    ecotune::store::StoreStats after = session.store().stats();
    Json attrs = delta_json(before, after);
    attrs["samples"] = dataset.samples.size();
    tracer.end(span, attrs);
    before = after;

    // Session::train_model's recipe with the dataset acquired above.
    span = tracer.begin("nn.train", root);
    ecotune::model::EnergyModelConfig model_config;
    model_config.jobs = session.jobs();
    ecotune::model::EnergyModel model(model_config);
    model.train(dataset, session.config().epochs());
    attrs = Json::object();
    attrs["samples"] = dataset.samples.size();
    attrs["epochs"] = session.config().epochs();
    tracer.end(span, attrs);

    span = tracer.begin("api.use_model", root);
    session.use_model(std::move(model));
    tracer.end(span);

    span = tracer.begin("core.dta_campaign", root);
    const api::CampaignReport campaign = session.run_dta_campaign(in.apps);
    after = session.store().stats();
    attrs = delta_json(before, after);
    long app_runs = 0;
    long scenarios = 0;
    for (const auto& report : campaign.reports) {
      app_runs += report.result.app_runs;
      scenarios += report.result.thread_scenarios +
                   report.result.frequency_scenarios;
    }
    attrs["app_runs"] = app_runs;
    attrs["scenarios"] = scenarios;
    tracer.end(span, attrs);

    span = tracer.begin("api.report", root);
    api::TextReportSink sink(os);
    sink.training_started(session.config().epochs());
    for (const auto& report : campaign.reports) sink.dta(report);
    sink.close();
    tracer.end(span);
    record_store(session, cache_dir, run);
  }
  tracer.end(root, stats_json(run.stats));
  run.ms = ms_between(t0, now_ns());
  run.text = os.str();
  return run;
}

}  // namespace perfbench
