#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "baseline/exhaustive_tuner.hpp"
#include "baseline/static_tuner.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/logging.hpp"
#include "core/evaluation.hpp"
#include "model/dataset.hpp"
#include "ptf/experiments_engine.hpp"
#include "store/measurement_store.hpp"
#include "store/serdes.hpp"
#include "tuners/qlearning_tuner.hpp"
#include "workload/suite.hpp"

namespace ecotune {
namespace {

namespace fs = std::filesystem;

/// Fresh temp directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("ecotune_store_" + tag + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string file() const {
    return (fs::path(path_) / "measurements.jsonl").string();
  }

 private:
  std::string path_;
};

hwsim::NodeSimulator test_node(int node_id = 0, std::uint64_t seed = 42) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), node_id, Rng(seed));
  node.set_jitter(0.002);
  return node;
}

// --- Fingerprint sensitivity ---------------------------------------------

TEST(Fingerprint, ChangingAnyComponentChangesTheDigest) {
  const SystemConfig config{24, CoreFreq::mhz(2500), UncoreFreq::mhz(3000)};
  auto digest = [&](const SystemConfig& c, std::string_view region,
                    std::uint64_t seed, std::uint64_t node_digest) {
    Fingerprint fp;
    fp.add("config", c).add("region", region).add("seed", seed);
    fp.add_digest("node", node_digest);
    return fp.digest();
  };
  const std::uint64_t base = digest(config, "region_a", 7, 99);

  SystemConfig threads = config;
  threads.threads = 20;
  SystemConfig cf = config;
  cf.core = CoreFreq::mhz(2400);
  SystemConfig ucf = config;
  ucf.uncore = UncoreFreq::mhz(2900);

  EXPECT_NE(digest(threads, "region_a", 7, 99), base);
  EXPECT_NE(digest(cf, "region_a", 7, 99), base);
  EXPECT_NE(digest(ucf, "region_a", 7, 99), base);
  EXPECT_NE(digest(config, "region_b", 7, 99), base);
  EXPECT_NE(digest(config, "region_a", 8, 99), base);
  EXPECT_NE(digest(config, "region_a", 7, 100), base);
  // And stability: same inputs, same digest.
  EXPECT_EQ(digest(config, "region_a", 7, 99), base);
}

TEST(Fingerprint, NodeStateFingerprintTracksStateAndSpec) {
  const auto a = test_node(0, 42).state_fingerprint();
  EXPECT_EQ(test_node(0, 42).state_fingerprint(), a);

  EXPECT_NE(test_node(1, 42).state_fingerprint(), a);  // node id
  EXPECT_NE(test_node(0, 43).state_fingerprint(), a);  // cluster seed

  auto jitter = test_node(0, 42);
  jitter.set_jitter(0.01);
  EXPECT_NE(jitter.state_fingerprint(), a);

  auto advanced = test_node(0, 42);
  advanced.idle(Seconds(1.0));
  EXPECT_NE(advanced.state_fingerprint(), a);  // simulated clock

  auto freqs = test_node(0, 42);
  freqs.set_all_core_freqs(CoreFreq::mhz(1800));
  EXPECT_NE(freqs.state_fingerprint(), a);

  auto spec = hwsim::haswell_ep_spec();
  spec.default_core = CoreFreq::mhz(2400);
  hwsim::NodeSimulator other_spec(spec, 0, Rng(42));
  other_spec.set_jitter(0.002);
  EXPECT_NE(other_spec.state_fingerprint(), a);
}

TEST(Fingerprint, BenchmarkDigestTracksWorkloadDefinition) {
  const auto& lulesh = workload::BenchmarkSuite::by_name("Lulesh");
  EXPECT_EQ(lulesh.fingerprint_digest(),
            workload::BenchmarkSuite::by_name("Lulesh").fingerprint_digest());
  EXPECT_NE(lulesh.fingerprint_digest(),
            workload::BenchmarkSuite::by_name("Mcb").fingerprint_digest());
  EXPECT_NE(lulesh.fingerprint_digest(),
            lulesh.with_iterations(3).fingerprint_digest());
}

// --- Store basics ---------------------------------------------------------

TEST(MeasurementStore, RoundTripsAndPersistsAcrossSessions) {
  TempDir dir("roundtrip");
  const store::MeasurementKey key{"task/a", 0x1234};
  Json payload = Json::object();
  payload["value"] = 0.1 + 0.2;  // not exactly representable as text naively

  {
    store::MeasurementStore s(dir.path(), store::StoreMode::kReadWrite);
    EXPECT_EQ(s.lookup(key), nullptr);
    s.insert(key, payload);
    const auto hit = s.lookup(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->at("value").as_number(), 0.1 + 0.2);  // bit-exact
    EXPECT_EQ(s.stats().hits, 1);
    EXPECT_EQ(s.stats().misses, 1);
    EXPECT_EQ(s.stats().writes, 1);
  }
  // A second session loads the appended file.
  store::MeasurementStore warm(dir.path(), store::StoreMode::kReadOnly);
  EXPECT_EQ(warm.size(), 1u);
  const auto hit = warm.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->at("value").as_number(), 0.1 + 0.2);
}

TEST(MeasurementStore, FingerprintMismatchInvalidatesTheStaleEntry) {
  TempDir dir("invalidate");
  store::MeasurementStore s(dir.path(), store::StoreMode::kReadWrite);
  s.insert({"task/a", 1}, Json(1.0));
  // Same task, different context: must not answer, must drop the entry.
  EXPECT_EQ(s.lookup({"task/a", 2}), nullptr);
  EXPECT_EQ(s.stats().invalidated, 1);
  EXPECT_EQ(s.size(), 0u);
  // Even the original fingerprint now misses (entry is gone)...
  EXPECT_EQ(s.lookup({"task/a", 1}), nullptr);
  // ...until re-inserted under the new context.
  s.insert({"task/a", 2}, Json(2.0));
  ASSERT_NE(s.lookup({"task/a", 2}), nullptr);
}

TEST(MeasurementStore, ReadOnlyModeNeverWrites) {
  TempDir dir("readonly");
  {
    store::MeasurementStore rw(dir.path(), store::StoreMode::kReadWrite);
    rw.insert({"task/a", 1}, Json(1.0));
  }
  const auto bytes_before = fs::file_size(dir.file());
  const auto mtime_before = fs::last_write_time(dir.file());

  store::MeasurementStore ro(dir.path(), store::StoreMode::kReadOnly);
  ASSERT_NE(ro.lookup({"task/a", 1}), nullptr);
  ro.insert({"task/b", 2}, Json(2.0));  // dropped
  EXPECT_EQ(ro.lookup({"task/b", 2}), nullptr);
  EXPECT_EQ(ro.stats().writes, 0);
  EXPECT_EQ(fs::file_size(dir.file()), bytes_before);
  EXPECT_EQ(fs::last_write_time(dir.file()), mtime_before);
}

TEST(MeasurementStore, ReadOnlyRequiresNothingOnDisk) {
  TempDir dir("ro_empty");
  // ro against a missing directory: valid, everything misses.
  store::MeasurementStore ro(dir.path(), store::StoreMode::kReadOnly);
  EXPECT_EQ(ro.lookup({"task/a", 1}), nullptr);
  EXPECT_FALSE(fs::exists(dir.path()));
}

TEST(MeasurementStore, OffModeIsInert) {
  TempDir dir("off");
  store::MeasurementStore off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.lookup({"task/a", 1}), nullptr);
  off.insert({"task/a", 1}, Json(1.0));
  EXPECT_EQ(off.lookup({"task/a", 1}), nullptr);
  EXPECT_EQ(off.stats().hits, 0);
  EXPECT_EQ(off.stats().misses, 0);
  EXPECT_FALSE(fs::exists(dir.path()));
}

TEST(MeasurementStore, RejectsCorruptEntriesLoudly) {
  TempDir dir("corrupt");
  fs::create_directories(dir.path());
  {
    store::MeasurementStore rw(dir.path(), store::StoreMode::kReadWrite);
    rw.insert({"task/good", 7}, Json(3.5));
  }
  {
    std::ofstream os(dir.file(), std::ios::app);
    os << "this is not json\n"
       << "{\"task\":\"task/nofp\",\"payload\":1}\n"
       << "{\"task\":\"task/badfp\",\"fp\":\"zz\",\"payload\":1}\n";
  }
  std::ostringstream log_sink;
  log::set_sink(&log_sink);
  store::MeasurementStore warm(dir.path(), store::StoreMode::kReadOnly);
  log::set_sink(nullptr);

  EXPECT_EQ(warm.stats().rejected, 3);
  EXPECT_EQ(warm.size(), 1u);
  ASSERT_NE(warm.lookup({"task/good", 7}), nullptr);
  EXPECT_EQ(warm.lookup({"task/nofp", 1}), nullptr);
  EXPECT_NE(log_sink.str().find("rejecting corrupt cache entry"),
            std::string::npos);
}

TEST(MeasurementStore, ParsesModesStrictly) {
  EXPECT_EQ(store::parse_store_mode("rw"), store::StoreMode::kReadWrite);
  EXPECT_EQ(store::parse_store_mode("ro"), store::StoreMode::kReadOnly);
  EXPECT_EQ(store::parse_store_mode("off"), store::StoreMode::kOff);
  EXPECT_THROW((void)store::parse_store_mode("RW"), Error);
  EXPECT_THROW((void)store::parse_store_mode(""), Error);
}

TEST(MeasurementStore, ResolvesCliModeDefaults) {
  EXPECT_EQ(store::resolve_store_mode("", ""), store::StoreMode::kOff);
  EXPECT_EQ(store::resolve_store_mode("", "/tmp/d"),
            store::StoreMode::kReadWrite);
  EXPECT_EQ(store::resolve_store_mode("ro", "/tmp/d"),
            store::StoreMode::kReadOnly);
  EXPECT_EQ(store::resolve_store_mode("off", ""), store::StoreMode::kOff);
  // A non-off mode without a cache dir is a user error.
  EXPECT_THROW((void)store::resolve_store_mode("rw", ""), Error);
  EXPECT_THROW((void)store::resolve_store_mode("sideways", "/tmp/d"), Error);
}

TEST(MeasurementStore, ScopesIsolateDriversSharingOneDirectory) {
  TempDir dir("scopes");
  const store::MeasurementKey key{"task/a", 1};
  {
    store::MeasurementStore a;
    a.open(dir.path(), store::StoreMode::kReadWrite, "driver_a");
    a.insert(key, Json(1.0));
    // Same task id under another scope: no hit, and crucially no
    // invalidation ping-pong between the two namespaces.
    store::MeasurementStore b;
    b.open(dir.path(), store::StoreMode::kReadWrite, "driver_b");
    EXPECT_EQ(b.lookup(key), nullptr);
    b.insert({key.task, 2}, Json(2.0));
    EXPECT_EQ(b.stats().invalidated, 0);
  }
  store::MeasurementStore a2;
  a2.open(dir.path(), store::StoreMode::kReadOnly, "driver_a");
  const auto hit = a2.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->as_number(), 1.0);
  EXPECT_EQ(a2.stats().invalidated, 0);
}

/// The compact dump of the entry document {fp, payload, task}: what a store
/// line held before lines were encoded without building that document.
std::string entry_document(const std::string& task, std::uint64_t fp,
                           const Json& payload) {
  Json doc = Json::object();
  doc["fp"] = Fingerprint::to_hex(fp);
  doc["payload"] = payload;
  doc["task"] = task;
  return doc.dump(-1);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(MeasurementStore, LineBytesEqualTheEntryDocumentDump) {
  const std::string specials = "q\"b\\s/\x01\x1f\n\t\r\b\f\x7f\xc3\xa9";
  Json nested = Json::object();
  nested["a"]["b"] = Json::array();
  nested["a"]["c"] = Json::object();
  nested["e"].push_back(Json::object());
  nested["e"].push_back(Json::array());
  nested["e"].push_back(Json(specials));
  Json keyed = Json::object();
  keyed[specials] = specials;
  keyed[""] = Json::object();
  Json scalars = Json::array();
  for (const Json& v : {Json(nullptr), Json(true), Json(false), Json(0.1 + 0.2),
                        Json(-1e300), Json(std::string()), Json(7)})
    scalars.push_back(v);

  struct Case {
    std::string task;
    Json payload;
  };
  const std::vector<Case> cases = {
      {"task/plain", Json(1.5)},
      {"task/\"quoted\"", Json("a\"b")},
      {"task\\back\\slash", Json("c:\\dir\\")},
      {"task/" + specials, Json(std::string{'\0', '\x02'})},
      {"task/empty-object", Json::object()},
      {"task/empty-array", Json::array()},
      {"task/nested", nested},
      {"task/special-keys", keyed},
      {"task/scalars", scalars},
  };

  TempDir dir("line_bytes");
  std::string expected;
  {
    store::MeasurementStore rw(dir.path(), store::StoreMode::kReadWrite);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::uint64_t fp = 0xfeed0000 + i;
      rw.insert({cases[i].task, fp}, cases[i].payload);
      expected += entry_document(cases[i].task, fp, cases[i].payload) + '\n';
    }
  }
  EXPECT_EQ(read_file(dir.file()), expected);

  store::MeasurementStore warm(dir.path(), store::StoreMode::kReadOnly);
  EXPECT_EQ(warm.stats().rejected, 0);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto hit = warm.lookup({cases[i].task, 0xfeed0000 + i});
    ASSERT_NE(hit, nullptr) << "case " << i;
    EXPECT_EQ(*hit, cases[i].payload) << "case " << i;
  }
}

TEST(MeasurementStore, LoadIsOrderedAndJobsInvariant) {
  TempDir dir("load_order");
  fs::create_directories(dir.path());
  std::string text;
  std::vector<long> corrupt_lines;
  long line_no = 0;
  const auto add = [&](const std::string& line, bool corrupt,
                       const char* eol = "\n") {
    text += line + eol;
    if (corrupt) corrupt_lines.push_back(line_no + 1);
    ++line_no;
  };
  for (int i = 0; i < 40; ++i) {
    Json payload = Json::object();
    payload["i"] = i;
    payload["v"] = 0.1 * i;
    add(entry_document("task/" + std::to_string(i), 100 + i, payload), false,
        i % 3 == 0 ? "\r\n" : "\n");
    if (i % 7 == 3) add("", false);
    if (i % 11 == 5) add("\r", false);
    if (i % 5 == 4) add(R"({"fp":"0000000000000001","payload":)", true);
  }
  add(entry_document("task/dup", 7, Json("first")), false);
  add("not json", true);
  add(R"({"task":"task/nofp","payload":1})", true);
  add(R"({"task":"task/badfp","fp":"zz","payload":1})", true);
  add(R"({"task":"","fp":"0000000000000001","payload":1})", true);
  add(R"({"task":"task/nopayload","fp":"0000000000000001"})", true);
  add(R"({"task":5,"fp":"0000000000000001","payload":1})", true);
  add(entry_document("task/dup", 8, Json("second")), false, "\r\n");
  add(entry_document("task/tail", 9, Json(9.0)), false, "");
  {
    std::ofstream os(dir.file(), std::ios::binary);
    os << text;
  }

  struct Loaded {
    std::size_t size = 0;
    long rejected = 0;
    std::vector<std::string> answers;
    std::string log;
  };
  const auto load = [&](int jobs) {
    std::ostringstream sink;
    log::set_sink(&sink);
    store::MeasurementStore s;
    s.open(dir.path(), store::StoreMode::kReadOnly, {}, 0, jobs);
    log::set_sink(nullptr);
    Loaded out;
    out.size = s.size();
    out.rejected = s.stats().rejected;
    out.log = sink.str();
    const auto answer = [&](const std::string& task, std::uint64_t fp) {
      const auto hit = s.lookup({task, fp});
      out.answers.push_back(hit ? hit->dump(-1) : "miss");
    };
    for (int i = 0; i < 40; ++i) answer("task/" + std::to_string(i), 100 + i);
    answer("task/dup", 8);
    answer("task/tail", 9);
    return out;
  };

  const Loaded serial = load(1);
  EXPECT_EQ(serial.size, 42u);
  EXPECT_EQ(serial.rejected, static_cast<long>(corrupt_lines.size()));
  EXPECT_EQ(serial.answers[40], "\"second\"");  // the later duplicate wins
  EXPECT_EQ(serial.answers[41], "9");
  for (int i = 0; i < 40; ++i)
    EXPECT_NE(serial.answers[static_cast<std::size_t>(i)], "miss") << i;
  // One log line per corrupt line, in file order, naming its line number.
  std::istringstream log_lines(serial.log);
  std::string log_line;
  std::size_t logged = 0;
  while (std::getline(log_lines, log_line)) {
    ASSERT_LT(logged, corrupt_lines.size()) << log_line;
    EXPECT_NE(log_line.find(dir.file() + ":" +
                            std::to_string(corrupt_lines[logged]) + " ("),
              std::string::npos)
        << log_line;
    ++logged;
  }
  EXPECT_EQ(logged, corrupt_lines.size());

  for (const int jobs : {2, 4}) {
    const Loaded parallel = load(jobs);
    EXPECT_EQ(parallel.size, serial.size) << "jobs=" << jobs;
    EXPECT_EQ(parallel.rejected, serial.rejected) << "jobs=" << jobs;
    EXPECT_EQ(parallel.answers, serial.answers) << "jobs=" << jobs;
    EXPECT_EQ(parallel.log, serial.log) << "jobs=" << jobs;
  }
}

TEST(MeasurementStore, HitsShareOnePayloadThatLaterInsertsNeverChange) {
  TempDir dir("shared_payload");
  store::MeasurementStore s(dir.path(), store::StoreMode::kReadWrite);
  Json first = Json::object();
  first["v"] = 1.0;
  Json second = Json::object();
  second["v"] = 2.0;

  s.insert({"task/a", 1}, first);
  const auto a = s.lookup({"task/a", 1});
  const auto b = s.lookup({"task/a", 1});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // one stored object, no copy per hit

  s.insert({"task/a", 1}, second);
  EXPECT_EQ(*a, first);  // a held payload never changes under the caller
  const auto c = s.lookup({"task/a", 1});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(*c, second);

  // Invalidation drops the entry, not the payload a caller still holds.
  EXPECT_EQ(s.lookup({"task/a", 2}), nullptr);
  EXPECT_EQ(*c, second);
}

// --- Cold vs warm equivalence, consumer by consumer -----------------------
//
// The contract under test: a warm rerun answers every task from the store
// (zero fresh simulations) and returns bit-identical values, at any job
// count on either side.

TEST(WarmRestart, StaticTunerReplaysBitIdentically) {
  TempDir dir("static");
  const auto app = workload::BenchmarkSuite::by_name("Lulesh");
  baseline::StaticTunerOptions opts;
  opts.thread_counts = {16, 24};
  opts.cf_stride = 4;
  opts.ucf_stride = 4;

  store::MeasurementStore cold_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 1;
  opts.store = &cold_store;
  baseline::StaticTuner cold_tuner(cold_node, opts);
  const auto cold = cold_tuner.tune(app);
  EXPECT_EQ(cold_store.stats().hits, 0);
  EXPECT_GT(cold_store.stats().writes, 0);

  store::MeasurementStore warm_store(dir.path(),
                                     store::StoreMode::kReadOnly);
  auto warm_node = test_node();
  opts.jobs = 4;  // cache entries are jobs-invariant
  opts.store = &warm_store;
  baseline::StaticTuner warm_tuner(warm_node, opts);
  const auto warm = warm_tuner.tune(app);
  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_EQ(warm_store.stats().hits, 1);  // one entry per sweep

  EXPECT_EQ(warm.best, cold.best);
  EXPECT_EQ(warm.runs, cold.runs);
  EXPECT_EQ(warm.search_time.value(), cold.search_time.value());
  ASSERT_EQ(warm.evaluated.size(), cold.evaluated.size());
  for (std::size_t i = 0; i < cold.evaluated.size(); ++i) {
    EXPECT_EQ(warm.evaluated[i].config, cold.evaluated[i].config);
    EXPECT_EQ(warm.evaluated[i].node_energy.value(),
              cold.evaluated[i].node_energy.value());
    EXPECT_EQ(warm.evaluated[i].cpu_energy.value(),
              cold.evaluated[i].cpu_energy.value());
    EXPECT_EQ(warm.evaluated[i].time.value(),
              cold.evaluated[i].time.value());
  }
}

TEST(WarmRestart, UndecodablePayloadFallsBackToSimulation) {
  TempDir dir("schema_drift");
  const auto app = workload::BenchmarkSuite::by_name("Lulesh");
  baseline::StaticTunerOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 5;
  opts.ucf_stride = 5;
  opts.jobs = 1;

  store::MeasurementStore cold_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.store = &cold_store;
  baseline::StaticTuner cold_tuner(cold_node, opts);
  const auto cold = cold_tuner.tune(app);

  // Simulate a payload-schema drift: task and fingerprint still match, but
  // the payload no longer decodes. The consumer must log, re-simulate, and
  // return values identical to the cold run -- never crash the worker.
  {
    std::ifstream is(dir.file());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    is.close();
    std::string::size_type pos = 0;
    while ((pos = text.find("node_energy", pos)) != std::string::npos)
      text.replace(pos, 11, "nodeXenergy");
    std::ofstream os(dir.file(), std::ios::trunc);
    os << text;
  }

  std::ostringstream log_sink;
  log::set_sink(&log_sink);
  store::MeasurementStore warm_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.store = &warm_store;
  baseline::StaticTuner warm_tuner(warm_node, opts);
  const auto warm = warm_tuner.tune(app);
  log::set_sink(nullptr);

  EXPECT_NE(log_sink.str().find("undecodable cache payload"),
            std::string::npos);
  EXPECT_EQ(warm.best, cold.best);
  ASSERT_EQ(warm.evaluated.size(), cold.evaluated.size());
  for (std::size_t i = 0; i < cold.evaluated.size(); ++i) {
    EXPECT_EQ(warm.evaluated[i].node_energy.value(),
              cold.evaluated[i].node_energy.value());
    EXPECT_EQ(warm.evaluated[i].time.value(),
              cold.evaluated[i].time.value());
  }
}

/// Applies `mutate` to the payload of every store line whose task contains
/// `task_part`, keeping task and fingerprint: the lookup still hits, but
/// the payload no longer matches what the consumer expects.
void rewrite_payloads(const std::string& file, std::string_view task_part,
                      const std::function<void(Json&)>& mutate) {
  std::ifstream is(file);
  std::ostringstream rewritten;
  std::string line;
  int touched = 0;
  while (std::getline(is, line)) {
    Json entry = Json::parse(line);
    if (entry.at("task").as_string().find(task_part) != std::string::npos) {
      mutate(entry["payload"]);
      ++touched;
    }
    rewritten << entry.dump(-1) << '\n';
  }
  is.close();
  ASSERT_GT(touched, 0) << "no '" << task_part << "' entry in " << file;
  std::ofstream os(file, std::ios::trunc);
  os << rewritten.str();
}

/// A truncated sweep: every column loses its last point.
void drop_last_point(Json& payload) {
  for (auto& [field, column] : payload.as_object())
    column.as_array().pop_back();
}

/// An overlong sweep: every column repeats its last point.
void repeat_last_point(Json& payload) {
  for (auto& [field, column] : payload.as_object()) {
    Json::Array& points = column.as_array();
    points.push_back(Json(points.back()));
  }
}

/// Sweep payloads whose point count no longer matches the lattice.
const std::array<std::pair<const char*, void (*)(Json&)>, 2> kMiscounted{
    {{"one point fewer", drop_last_point},
     {"one point more", repeat_last_point}}};

/// (cold jobs, warm jobs): the fallback is jobs-invariant on either side.
constexpr std::array<std::pair<int, int>, 2> kJobPairs{{{1, 4}, {4, 1}}};

TEST(WarmRestart, MiscountedStaticSweepFallsBackToSimulation) {
  const auto app = workload::BenchmarkSuite::by_name("Lulesh");
  baseline::StaticTunerOptions opts;
  opts.thread_counts = {16, 24};
  opts.cf_stride = 4;
  opts.ucf_stride = 4;
  for (const auto& [what, miscount] : kMiscounted) {
    for (const auto& [cold_jobs, warm_jobs] : kJobPairs) {
      SCOPED_TRACE(std::string(what) + ", cold jobs " +
                   std::to_string(cold_jobs) + ", warm jobs " +
                   std::to_string(warm_jobs));
      TempDir dir("static_miscounted");
      store::MeasurementStore cold_store(dir.path(),
                                         store::StoreMode::kReadWrite);
      auto cold_node = test_node();
      opts.jobs = cold_jobs;
      opts.store = &cold_store;
      baseline::StaticTuner cold_tuner(cold_node, opts);
      const auto cold = cold_tuner.tune(app);
      EXPECT_EQ(cold_store.stats().writes, 1);  // one entry per sweep

      rewrite_payloads(dir.file(), "static/", miscount);

      std::ostringstream log_sink;
      log::set_sink(&log_sink);
      store::MeasurementStore warm_store(dir.path(),
                                         store::StoreMode::kReadWrite);
      auto warm_node = test_node();
      opts.jobs = warm_jobs;
      opts.store = &warm_store;
      baseline::StaticTuner warm_tuner(warm_node, opts);
      const auto warm = warm_tuner.tune(app);
      log::set_sink(nullptr);

      EXPECT_NE(log_sink.str().find("undecodable cache payload"),
                std::string::npos);
      EXPECT_EQ(warm_store.stats().hits, 1);
      EXPECT_EQ(warm_store.stats().writes, 1);  // the re-simulated sweep
      EXPECT_EQ(warm.best, cold.best);
      EXPECT_EQ(warm.runs, cold.runs);
      EXPECT_EQ(warm.search_time.value(), cold.search_time.value());
      EXPECT_EQ(warm_node.now().value(), cold_node.now().value());
      ASSERT_EQ(warm.evaluated.size(), cold.evaluated.size());
      for (std::size_t i = 0; i < cold.evaluated.size(); ++i) {
        EXPECT_EQ(warm.evaluated[i].config, cold.evaluated[i].config);
        EXPECT_EQ(warm.evaluated[i].node_energy.value(),
                  cold.evaluated[i].node_energy.value());
        EXPECT_EQ(warm.evaluated[i].cpu_energy.value(),
                  cold.evaluated[i].cpu_energy.value());
        EXPECT_EQ(warm.evaluated[i].time.value(),
                  cold.evaluated[i].time.value());
      }
    }
  }
}

TEST(WarmRestart, MiscountedExhaustiveSweepFallsBackToSimulation) {
  const auto app =
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(4);
  baseline::ExhaustiveTunerOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 5;
  opts.ucf_stride = 5;
  for (const auto& [what, miscount] : kMiscounted) {
    for (const auto& [cold_jobs, warm_jobs] : kJobPairs) {
      SCOPED_TRACE(std::string(what) + ", cold jobs " +
                   std::to_string(cold_jobs) + ", warm jobs " +
                   std::to_string(warm_jobs));
      TempDir dir("exhaustive_miscounted");
      store::MeasurementStore cold_store(dir.path(),
                                         store::StoreMode::kReadWrite);
      auto cold_node = test_node();
      opts.jobs = cold_jobs;
      opts.store = &cold_store;
      baseline::ExhaustiveTuner cold_tuner(cold_node, opts);
      const auto cold = cold_tuner.tune(app);
      EXPECT_EQ(cold_store.stats().writes, 1);  // one entry per sweep

      rewrite_payloads(dir.file(), "exhaustive/", miscount);

      std::ostringstream log_sink;
      log::set_sink(&log_sink);
      store::MeasurementStore warm_store(dir.path(),
                                         store::StoreMode::kReadWrite);
      auto warm_node = test_node();
      opts.jobs = warm_jobs;
      opts.store = &warm_store;
      baseline::ExhaustiveTuner warm_tuner(warm_node, opts);
      const auto warm = warm_tuner.tune(app);
      log::set_sink(nullptr);

      EXPECT_NE(log_sink.str().find("undecodable cache payload"),
                std::string::npos);
      EXPECT_EQ(warm_store.stats().hits, 1);
      EXPECT_EQ(warm_store.stats().writes, 1);
      EXPECT_EQ(warm.app_best, cold.app_best);
      EXPECT_EQ(warm.region_best, cold.region_best);
      EXPECT_EQ(warm.runs, cold.runs);
      EXPECT_EQ(warm.search_time.value(), cold.search_time.value());
      EXPECT_EQ(warm.formula_runs, cold.formula_runs);
      EXPECT_EQ(warm.formula_time.value(), cold.formula_time.value());
      EXPECT_EQ(warm_node.now().value(), cold_node.now().value());
    }
  }
}

TEST(WarmRestart, QLearningPayloadWithoutBestFallsBackToSimulation) {
  // The walk is inherently serial (QLearningOptions has no jobs knob), so
  // there is no worker count to vary on either side.
  const auto app = workload::BenchmarkSuite::by_name("Mcb");
  tuners::QLearningOptions opts;
  opts.episodes = 12;
  opts.phase_iterations = 1;
  TempDir dir("qlearn_no_best");

  store::MeasurementStore cold_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.store = &cold_store;
  tuners::QLearningTuner cold_tuner(cold_node, opts);
  const std::string cold =
      cold_tuner.tune(TuningRequest{app, "energy"}).to_json().dump(-1);
  EXPECT_EQ(cold_store.stats().writes, 1);  // one entry per call

  rewrite_payloads(dir.file(), "qlearn/",
                   [](Json& payload) { payload.as_object().erase("best"); });

  std::ostringstream log_sink;
  log::set_sink(&log_sink);
  store::MeasurementStore warm_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.store = &warm_store;
  tuners::QLearningTuner warm_tuner(warm_node, opts);
  const std::string warm =
      warm_tuner.tune(TuningRequest{app, "energy"}).to_json().dump(-1);
  log::set_sink(nullptr);

  EXPECT_NE(log_sink.str().find("undecodable cache payload"),
            std::string::npos);
  EXPECT_EQ(warm_store.stats().hits, 1);
  EXPECT_EQ(warm_store.stats().writes, 1);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm_node.now().value(), cold_node.now().value());
}

TEST(WarmRestart, ExhaustiveTunerReplaysBitIdentically) {
  TempDir dir("exhaustive");
  const auto app =
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(4);
  baseline::ExhaustiveTunerOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 5;
  opts.ucf_stride = 5;

  store::MeasurementStore cold_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 2;
  opts.store = &cold_store;
  baseline::ExhaustiveTuner cold_tuner(cold_node, opts);
  const auto cold = cold_tuner.tune(app);

  store::MeasurementStore warm_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.jobs = 1;
  opts.store = &warm_store;
  baseline::ExhaustiveTuner warm_tuner(warm_node, opts);
  const auto warm = warm_tuner.tune(app);

  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_EQ(warm_store.stats().writes, 0);
  EXPECT_GT(warm_store.stats().hits, 0);
  EXPECT_EQ(warm.app_best, cold.app_best);
  EXPECT_EQ(warm.region_best, cold.region_best);
  EXPECT_EQ(warm.runs, cold.runs);
  EXPECT_EQ(warm.search_time.value(), cold.search_time.value());
  EXPECT_EQ(warm.formula_time.value(), cold.formula_time.value());
}

TEST(WarmRestart, ExperimentsEngineReplaysBitIdentically) {
  TempDir dir("engine");
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(5);
  const SystemConfig base{24, CoreFreq::mhz(2000), UncoreFreq::mhz(1500)};
  std::vector<ptf::Scenario> scenarios;
  scenarios.push_back(ptf::config_to_scenario(
      0, SystemConfig{24, CoreFreq::mhz(2500), UncoreFreq::mhz(3000)}));
  scenarios.push_back(ptf::config_to_scenario(
      1, SystemConfig{16, CoreFreq::mhz(1800), UncoreFreq::mhz(2200)}));
  scenarios.push_back(ptf::config_to_scenario(
      2, SystemConfig{20, CoreFreq::mhz(1200), UncoreFreq::mhz(1300)}));

  ptf::EngineOptions opts;
  opts.iterations_per_scenario = 2;

  store::MeasurementStore cold_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 1;
  opts.store = &cold_store;
  ptf::ExperimentsEngine cold_engine(
      cold_node, app, instr::InstrumentationFilter::instrument_all(), opts);
  const auto cold = cold_engine.run(scenarios, base);

  store::MeasurementStore warm_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.jobs = 3;
  opts.store = &warm_store;
  ptf::ExperimentsEngine warm_engine(
      warm_node, app, instr::InstrumentationFilter::instrument_all(), opts);
  const auto warm = warm_engine.run(scenarios, base);

  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_GT(warm_store.stats().hits, 0);
  EXPECT_EQ(warm_engine.app_runs(), cold_engine.app_runs());
  EXPECT_EQ(warm_engine.experiment_time().value(),
            cold_engine.experiment_time().value());
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].scenario.id, cold[i].scenario.id);
    EXPECT_EQ(warm[i].config, cold[i].config);
    EXPECT_EQ(warm[i].phase.node_energy.value(),
              cold[i].phase.node_energy.value());
    EXPECT_EQ(warm[i].phase.cpu_energy.value(),
              cold[i].phase.cpu_energy.value());
    EXPECT_EQ(warm[i].phase.time.value(), cold[i].phase.time.value());
    EXPECT_EQ(warm[i].phase.count, cold[i].phase.count);
    ASSERT_EQ(warm[i].regions.size(), cold[i].regions.size());
    for (const auto& [region, m] : cold[i].regions) {
      const auto& w = warm[i].regions.at(region);
      EXPECT_EQ(w.node_energy.value(), m.node_energy.value());
      EXPECT_EQ(w.cpu_energy.value(), m.cpu_energy.value());
      EXPECT_EQ(w.time.value(), m.time.value());
      EXPECT_EQ(w.count, m.count);
    }
  }
}

TEST(WarmRestart, DataAcquisitionReplaysBitIdentically) {
  TempDir dir("acquire");
  model::AcquisitionOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 4;
  opts.ucf_stride = 4;
  opts.phase_iterations = 2;
  const std::vector<workload::Benchmark> benchmarks{
      workload::BenchmarkSuite::by_name("Lulesh"),
      workload::BenchmarkSuite::by_name("Mcb")};

  store::MeasurementStore cold_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 2;
  opts.store = &cold_store;
  model::DataAcquisition cold_acq(cold_node, opts);
  const auto cold = cold_acq.acquire(benchmarks);
  EXPECT_EQ(cold_store.stats().writes, 2);  // one entry per benchmark sweep

  store::MeasurementStore warm_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.jobs = 1;
  opts.store = &warm_store;
  model::DataAcquisition warm_acq(warm_node, opts);
  const auto warm = warm_acq.acquire(benchmarks);

  EXPECT_EQ(warm_store.stats().hits, 2);
  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_EQ(warm_acq.runs_performed(), cold_acq.runs_performed());
  EXPECT_EQ(warm.feature_names, cold.feature_names);
  ASSERT_EQ(warm.samples.size(), cold.samples.size());
  for (std::size_t i = 0; i < cold.samples.size(); ++i) {
    EXPECT_EQ(warm.samples[i].benchmark, cold.samples[i].benchmark);
    EXPECT_EQ(warm.samples[i].threads, cold.samples[i].threads);
    EXPECT_EQ(warm.samples[i].cf, cold.samples[i].cf);
    EXPECT_EQ(warm.samples[i].ucf, cold.samples[i].ucf);
    EXPECT_EQ(warm.samples[i].features, cold.samples[i].features);
    EXPECT_EQ(warm.samples[i].normalized_energy,
              cold.samples[i].normalized_energy);
    EXPECT_EQ(warm.samples[i].normalized_power,
              cold.samples[i].normalized_power);
    EXPECT_EQ(warm.samples[i].normalized_time,
              cold.samples[i].normalized_time);
  }
}

TEST(WarmRestart, SavingsEvaluatorReplaysRowsBitIdentically) {
  TempDir dir("savings");
  // Small trained model: strided acquisition over two benchmarks.
  auto train_node = test_node(0, 7);
  model::AcquisitionOptions acq_opts;
  acq_opts.thread_counts = {16, 24};
  acq_opts.cf_stride = 3;
  acq_opts.ucf_stride = 3;
  acq_opts.phase_iterations = 2;
  model::DataAcquisition acq(train_node, acq_opts);
  model::EnergyModel trained;
  trained.train(acq.acquire({workload::BenchmarkSuite::by_name("Lulesh"),
                             workload::BenchmarkSuite::by_name("Mcb")}),
                5);

  core::SavingsOptions opts;
  opts.repeats = 2;
  opts.static_search.thread_counts = {16, 24};
  opts.static_search.cf_stride = 3;
  opts.static_search.ucf_stride = 3;
  const std::vector<workload::Benchmark> apps{
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(6)};

  store::MeasurementStore cold_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 1;
  opts.store = &cold_store;
  core::SavingsEvaluator cold_eval(cold_node, trained, opts);
  const auto cold = cold_eval.evaluate_all(apps);

  store::MeasurementStore warm_store(dir.path(),
                                     store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.jobs = 2;
  opts.store = &warm_store;
  core::SavingsEvaluator warm_eval(warm_node, trained, opts);
  const auto warm = warm_eval.evaluate_all(apps);

  // The whole row replays from one store entry: no inner lookups, no
  // fresh simulation.
  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_EQ(warm_store.stats().hits, 1);
  ASSERT_EQ(warm.size(), cold.size());
  const auto& c = cold[0];
  const auto& w = warm[0];
  EXPECT_EQ(w.benchmark, c.benchmark);
  EXPECT_EQ(w.static_config, c.static_config);
  EXPECT_EQ(w.static_job_energy_pct, c.static_job_energy_pct);
  EXPECT_EQ(w.static_cpu_energy_pct, c.static_cpu_energy_pct);
  EXPECT_EQ(w.static_time_pct, c.static_time_pct);
  EXPECT_EQ(w.dynamic_job_energy_pct, c.dynamic_job_energy_pct);
  EXPECT_EQ(w.dynamic_cpu_energy_pct, c.dynamic_cpu_energy_pct);
  EXPECT_EQ(w.dynamic_time_pct, c.dynamic_time_pct);
  EXPECT_EQ(w.perf_reduction_config_pct, c.perf_reduction_config_pct);
  EXPECT_EQ(w.overhead_pct, c.overhead_pct);
  EXPECT_EQ(w.dynamic_switches, c.dynamic_switches);
  EXPECT_EQ(w.dta.phase_best, c.dta.phase_best);
  EXPECT_EQ(w.dta.region_best, c.dta.region_best);
  EXPECT_EQ(w.dta.tuning_time.value(), c.dta.tuning_time.value());
  EXPECT_EQ(w.dta.app_runs, c.dta.app_runs);
  EXPECT_EQ(w.dta.tuning_model.to_json().dump(-1),
            c.dta.tuning_model.to_json().dump(-1));
}

// --- Serialization round trips --------------------------------------------

TEST(Serdes, MeasurementAndConfigRoundTripBitExactly) {
  ptf::Measurement m;
  m.node_energy = Joules(1234.567890123456789);
  m.cpu_energy = Joules(0.1 + 0.2);
  m.time = Seconds(1e-9 / 3.0);
  m.count = 42;
  // Through text: the payload survives a dump/parse cycle, as on disk.
  const Json reparsed = Json::parse(ptf::to_json(m).dump(-1));
  const auto back = ptf::measurement_from_json(reparsed);
  EXPECT_EQ(back.node_energy.value(), m.node_energy.value());
  EXPECT_EQ(back.cpu_energy.value(), m.cpu_energy.value());
  EXPECT_EQ(back.time.value(), m.time.value());
  EXPECT_EQ(back.count, m.count);

  const SystemConfig c{20, CoreFreq::mhz(1700), UncoreFreq::mhz(2600)};
  EXPECT_EQ(store::config_from_json(Json::parse(store::to_json(c).dump(-1))),
            c);
}

}  // namespace
}  // namespace ecotune
