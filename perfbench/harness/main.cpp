// perfbench_harness -- runs one generated benchmark plan against the
// installed ecotune library and writes every raw sample to a JSON file.
//
//   perfbench_harness --plan PLAN.json
//
// The plan (written by perfbench/run.py from the workload spec and a seed)
// holds the campaign inputs, the daemon configuration and every daemon
// request with its due time. The harness sets up, prints "READY" on
// stdout, and -- unless the plan is setup-only -- runs campaign rounds
// interleaved with open-loop daemon windows, replays the daemon's frames
// through TuningService::handle, checks every output, and writes the
// result file named by the plan. Statistics are computed by run.py from
// the raw samples.
#include <cpuid.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "harness.hpp"
#include "serve/protocol.hpp"
#include "workload/suite.hpp"

namespace perfbench {

int Tracer::begin(std::string name, int parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id, ecotune::Json attrs) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_ns = now_ns();
  span.attrs = std::move(attrs);
}

ecotune::Json Tracer::to_json() const {
  ecotune::Json::Array out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    ecotune::Json j = ecotune::Json::object();
    j["id"] = i;
    j["name"] = s.name;
    j["parent"] = s.parent;
    j["start_ns"] = s.start_ns;
    j["end_ns"] = s.end_ns;
    j["attrs"] = s.attrs;
    out.push_back(std::move(j));
  }
  return ecotune::Json(std::move(out));
}

namespace {

using ecotune::Json;
namespace fs = std::filesystem;

/// How long a daemon window waits for answers after its last due time.
constexpr double kGraceS = 30;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// The CPU, read from cpuid rather than from any file.
Json host_json() {
  Json host = Json::object();
  host["simd"] = ecotune::simd::to_string(ecotune::simd::active_level());
  unsigned regs[12] = {};
  std::string brand;
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    brand.assign(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();
    brand.erase(0, brand.find_first_not_of(' '));
  }
  host["cpu_model"] = brand;
  Json::Array flags;
  __builtin_cpu_init();
#define PERFBENCH_FLAG(name) \
  if (__builtin_cpu_supports(name)) flags.emplace_back(name);
  PERFBENCH_FLAG("sse2")
  PERFBENCH_FLAG("sse4.2")
  PERFBENCH_FLAG("avx")
  PERFBENCH_FLAG("avx2")
  PERFBENCH_FLAG("fma")
  PERFBENCH_FLAG("bmi2")
  PERFBENCH_FLAG("avx512f")
  PERFBENCH_FLAG("avx512bw")
  PERFBENCH_FLAG("avx512vl")
#undef PERFBENCH_FLAG
  host["cpu_flags"] = Json(std::move(flags));
#if defined(__clang__)
  host["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host["compiler"] = std::string("gcc ") + __VERSION__;
#else
  host["compiler"] = "unknown";
#endif
  return host;
}

Json run_json(const CampaignRun& run) {
  Json j = stats_json(run.stats);
  j["entries"] = run.entries;
  j["file_bytes"] = static_cast<std::size_t>(run.file_bytes);
  return j;
}

/// Campaign rounds: their timings, store counters and output checks.
class CampaignPhase {
 public:
  CampaignPhase(const Json& spec, const fs::path& work_dir)
      : work_dir_(work_dir),
        jobs_(spec.at("jobs").as_int()),
        cold_writes_(spec.at("expect_cold_writes").as_int()) {
    inputs_.seed = static_cast<std::uint64_t>(spec.at("seed").as_number());
    for (const auto& name : spec.at("benchmarks").as_array())
      inputs_.apps.push_back(
          ecotune::workload::BenchmarkSuite::by_name(name.as_string()));
  }

  /// The first campaign of the process: warms lazy state and produces the
  /// reference text every later campaign must reproduce.
  void warm_up() { reference_ = run_campaign(inputs_, jobs_, "").text; }
  [[nodiscard]] const std::string& reference() const { return reference_; }
  [[nodiscard]] const CampaignInputs& inputs() const { return inputs_; }

  /// Untimed-loop body of a --trace 0 run: store off at jobs N and 1, then
  /// a cold campaign into an empty store and a warm restart over it.
  void measured_round() {
    take("nostore", run_campaign(inputs_, jobs_, ""));
    take("nostore_j1", run_campaign(inputs_, 1, ""));
    const std::string dir = fresh_dir();
    take_cold(run_campaign(inputs_, jobs_, dir));
    take_warm(run_campaign(inputs_, jobs_, dir));
    fs::remove_all(dir);
  }

  /// Body of a --trace 1 run: each traced campaign next to an untraced one
  /// of the same kind, so coverage and overhead come from one run.
  void traced_round(Tracer& tracer) {
    take("nostore", run_campaign(inputs_, jobs_, ""));
    take("nostore_traced",
         run_campaign_traced(inputs_, jobs_, "", tracer, "campaign.nostore"));
    std::string dir = fresh_dir();
    take_cold(run_campaign(inputs_, jobs_, dir));
    take_warm(run_campaign(inputs_, jobs_, dir));
    fs::remove_all(dir);
    dir = fresh_dir();
    take_cold(run_campaign_traced(inputs_, jobs_, dir, tracer, "campaign.cold"),
              "cold_traced");
    take_warm(run_campaign_traced(inputs_, jobs_, dir, tracer, "campaign.warm"),
              "warm_traced");
    fs::remove_all(dir);
  }

  [[nodiscard]] Json to_json() const {
    Json j = Json::object();
    Json samples = Json::object();
    for (const auto& [name, values] : samples_) {
      Json::Array arr(values.begin(), values.end());
      samples[name] = Json(std::move(arr));
    }
    j["samples_ms"] = samples;
    j["campaigns"] = campaigns_;
    j["text_mismatches"] = text_mismatches_;
    j["store_mismatches"] = store_mismatches_;
    j["store"] = store_;
    return j;
  }
  [[nodiscard]] long failures() const {
    return text_mismatches_ + store_mismatches_;
  }

 private:
  std::string fresh_dir() {
    return (work_dir_ / ("store-" + std::to_string(dirs_++))).string();
  }
  void take(const std::string& name, const CampaignRun& run) {
    samples_[name].push_back(run.ms);
    ++campaigns_;
    if (run.text != reference_) {
      ++text_mismatches_;
      write_file(work_dir_ / ("mismatch-" + name + ".txt"), run.text);
    }
  }
  void take_cold(const CampaignRun& run, const std::string& name = "cold") {
    take(name, run);
    if (run.stats.misses != cold_writes_ || run.stats.writes != cold_writes_)
      ++store_mismatches_;
    store_["cold"] = run_json(run);
  }
  void take_warm(const CampaignRun& run, const std::string& name = "warm") {
    take(name, run);
    if (run.stats.misses != 0 || run.stats.writes != 0) ++store_mismatches_;
    store_["warm"] = run_json(run);
  }

  fs::path work_dir_;
  int jobs_;
  long cold_writes_;
  CampaignInputs inputs_;
  std::string reference_;
  int dirs_ = 0;
  std::map<std::string, std::vector<double>> samples_;
  long campaigns_ = 0;
  long text_mismatches_ = 0;
  long store_mismatches_ = 0;
  Json store_ = Json::object();
};

std::vector<Request> parse_requests(const Json& list) {
  std::vector<Request> out;
  for (const auto& r : list.as_array()) {
    Request req;
    req.due_ms = r.at("due_ms").as_number();
    req.conn = r.at("conn").as_int();
    req.repeat_of = r.at("repeat_of").as_int();
    req.frame = r.at("frame");
    req.method = req.frame.at("method").as_string();
    out.push_back(std::move(req));
  }
  return out;
}

/// The daemon's configuration; an empty `store_dir` turns the store off.
ecotune::serve::ServiceConfig service_config(const Json& spec,
                                             const std::string& store_dir) {
  ecotune::serve::ServiceConfig config;
  config.session = ecotune::api::SessionConfig{}
                       .seed(static_cast<std::uint64_t>(
                           spec.at("seed").as_number()))
                       .jobs(spec.at("jobs").as_int())
                       .cache(store_dir);
  config.workers = spec.at("workers").as_int();
  return config;
}

Json store_json(ecotune::serve::TuningService& service,
                const std::string& dir) {
  auto& store = service.session().store();
  Json j = stats_json(store.stats());
  j["entries"] = store.size();
  std::error_code ec;
  const auto bytes = fs::file_size(fs::path(dir) / "measurements.jsonl", ec);
  j["file_bytes"] = static_cast<std::size_t>(ec ? 0 : bytes);
  return j;
}

Json replay_json(const Replay& r) {
  Json j = Json::object();
  j["handle_ms"] = Json(Json::Array(r.handle_ms.begin(), r.handle_ms.end()));
  j["mode"] = Json(Json::Array(r.mode.begin(), r.mode.end()));
  return j;
}

/// Every ok daemon answer must equal the direct handle() answer to the same
/// frame, and a repeat must carry the same result as the request it
/// repeats. Returns the number of mismatches.
long check_serve(const std::vector<Request>& requests,
                 const std::vector<Outcome>& outcomes, const Replay& direct,
                 const fs::path& work_dir) {
  long mismatches = 0;
  auto ok = [](const Json& r) {
    return r.is_object() && r.contains("ok") && r.at("ok").as_bool();
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Json& got = outcomes[i].response;
    if (!ok(got)) continue;  // counted as a failed request instead
    const std::string dump = got.dump(-1);
    if (dump != direct.response[i]) {
      ++mismatches;
      write_file(work_dir / ("mismatch-request-" + std::to_string(i) + ".txt"),
                 dump + "\n" + direct.response[i] + "\n");
    }
    const int first = requests[i].repeat_of;
    if (first >= 0) {
      const Json& original = outcomes[static_cast<std::size_t>(first)].response;
      if (ok(original) &&
          original.at("result").dump(-1) != got.at("result").dump(-1))
        ++mismatches;
    }
  }
  return mismatches;
}

int run(const Json& plan) {
  const fs::path work_dir = plan.at("work_dir").as_string();
  fs::create_directories(work_dir);
  const bool trace = plan.at("trace").as_bool();
  const Json& cspec = plan.at("campaign");
  const Json& sspec = plan.at("serve");

  // -- Set-up: everything before the first timed operation. --------------
  CampaignPhase campaign(cspec, work_dir);
  campaign.warm_up();
  const std::string daemon_store = (work_dir / "daemon-store").string();
  auto daemon = std::make_unique<Daemon>(
      service_config(sspec, sspec.at("store").as_bool() ? daemon_store : ""),
      (work_dir / "daemon.sock").string());
  std::vector<int> fds = daemon->connect_clients(sspec.at("connections").as_int());
  std::cout << "READY" << std::endl;
  if (plan.at("setup_only").as_bool()) {
    for (const int fd : fds) ::close(fd);
    return 0;
  }

  Json result = Json::object();
  result["host"] = host_json();
  Tracer tracer;

  // -- Campaign rounds and daemon windows, interleaved. --------------------
  // The run alternates campaign rounds with slices of the request schedule,
  // so every metric samples the whole run rather than one stretch of it.
  const std::vector<Request> requests = parse_requests(sspec.at("requests"));
  const int windows = sspec.at("windows").as_int();
  const double round_budget_ms =
      cspec.at("seconds").as_number() * 1e3 / windows;
  const int min_rounds =
      (cspec.at("min_rounds").as_int() + windows - 1) / windows;
  std::vector<Outcome> outcomes;
  Json::Array timings;
  Json::Array window_ms;
  for (int w = 0; w < windows; ++w) {
    const std::int64_t t0 = now_ns();
    for (int round = 0;
         round < min_rounds || ms_between(t0, now_ns()) < round_budget_ms;
         ++round) {
      if (trace)
        campaign.traced_round(tracer);
      else
        campaign.measured_round();
    }

    const std::size_t first = requests.size() * w / windows;
    const std::size_t last = requests.size() * (w + 1) / windows;
    std::vector<Request> slice(requests.begin() + first,
                               requests.begin() + last);
    for (auto& req : slice) req.due_ms -= requests[first].due_ms;
    const std::vector<Outcome> got = drive_open_loop(slice, fds, kGraceS);

    // Times relative to the slice's first due time.
    const std::int64_t origin = got.empty() ? 0 : got.front().due_ns;
    const auto rel = [&](std::int64_t t) {
      return t < 0 ? Json() : Json(ms_between(origin, t));
    };
    std::int64_t last_recv = origin;
    for (const auto& o : got) {
      Json::Array row{rel(o.due_ns), rel(o.sent_ns), rel(o.recv_ns)};
      if (o.response.is_object() && o.response.contains("ok")) {
        const bool ok = o.response.at("ok").as_bool();
        row.emplace_back(ok ? Json("ok") : o.response.at("error").at("code"));
      } else {
        row.emplace_back("unanswered");
      }
      timings.emplace_back(std::move(row));
      last_recv = std::max(last_recv, o.recv_ns);
      outcomes.push_back(o);
    }
    window_ms.emplace_back(ms_between(origin, last_recv));
  }
  for (const int fd : fds) ::close(fd);
  Json serve = Json::object();
  serve["window_ms"] = Json(std::move(window_ms));
  serve["timings_ms"] = Json(std::move(timings));
  serve["store"] = store_json(daemon->service(), daemon_store);
  daemon.reset();  // drains, joins, and frees the daemon's store
  fs::remove_all(daemon_store);

  // -- Direct replay of the same frames through TuningService::handle. -----
  // Answers do not depend on the store, so the untraced run replays with it
  // off. The traced run first replays with the daemon's store mode (its
  // handle() times are subtracted from the daemon's latencies), then on a
  // fresh store and once more on that, now warm, store: misses only happen
  // on a fresh store, hits on repeats and on the warm pass.
  long failures = campaign.failures();
  long mismatches = 0;
  Replay direct;
  {
    const std::string dir = trace && sspec.at("store").as_bool()
                                ? (work_dir / "replay-store-0").string()
                                : std::string();
    ecotune::serve::TuningService service(service_config(sspec, dir));
    direct = replay(service, requests);
    if (trace) {
      Json::Array protocol_us;
      Json::Array recommend_us;
      const auto& model = service.session().model();
      const auto& spec = service.session().config().spec();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const Json response = Json::parse(direct.response[i]);
        std::int64_t t = now_ns();
        ecotune::serve::FrameDecoder decoder;
        const std::string request_wire =
            ecotune::serve::encode_frame(requests[i].frame);
        decoder.feed(request_wire.data(), request_wire.size());
        (void)decoder.next();
        const std::string response_wire = ecotune::serve::encode_frame(response);
        decoder.feed(response_wire.data(), response_wire.size());
        (void)decoder.next();
        protocol_us.emplace_back(ms_between(t, now_ns()) * 1e3);
        if (requests[i].method != "predict") continue;
        std::map<std::string, double> rates;
        for (const auto& [name, v] :
             requests[i].frame.at("params").at("counter_rates").as_object())
          rates[name] = v.as_number();
        t = now_ns();
        (void)model.recommend(rates, spec);
        recommend_us.emplace_back(ms_between(t, now_ns()) * 1e3);
      }
      serve["protocol_us"] = Json(std::move(protocol_us));
      serve["recommend_us"] = Json(std::move(recommend_us));
    }
  }
  mismatches += check_serve(requests, outcomes, direct, work_dir);
  for (const bool ok : direct.ok)
    if (!ok) ++mismatches;
  serve["replay"] = replay_json(direct);
  if (trace) {
    fs::remove_all(work_dir / "replay-store-0");
    const fs::path dir = work_dir / "replay-store-1";
    {
      ecotune::serve::TuningService service(service_config(sspec, dir.string()));
      const Replay fresh = replay(service, requests);
      const Replay warm = replay(service, requests);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (fresh.response[i] != direct.response[i]) ++mismatches;
        if (warm.response[i] != direct.response[i]) ++mismatches;
      }
      serve["replay_fresh"] = replay_json(fresh);
      serve["replay_warm"] = replay_json(warm);
    }
    fs::remove_all(dir);
  }
  serve["mismatches"] = mismatches;
  failures += mismatches;
  result["serve"] = serve;

  // -- Reference texts for the ecotune_dta comparison in run.py. ----------
  write_file(work_dir / "campaign.txt", campaign.reference());
  CampaignInputs defaults = campaign.inputs();
  defaults.seed = static_cast<std::uint64_t>(
      cspec.at("default_seed").as_number());
  write_file(work_dir / "campaign-default-seed.txt",
             run_campaign(defaults, cspec.at("jobs").as_int(), "").text);

  result["campaign"] = campaign.to_json();
  result["spans"] = tracer.to_json();
  result["failures"] = failures;
  write_file(plan.at("out").as_string(), result.dump(-1));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--plan") {
    std::cerr << "usage: perfbench_harness --plan PLAN.json\n";
    return 2;
  }
  try {
    return perfbench::run(ecotune::Json::parse(perfbench::read_file(argv[2])));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << '\n';
    return 1;
  }
}
