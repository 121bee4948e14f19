// Tuning-service coverage: the ecotune.rpc.v1 wire protocol (framing,
// request validation, response shapes), the concurrent TuningService
// dispatch (byte-identity to serial execution under >= 64 in-flight
// requests), the AF_UNIX Server (backpressure, queue timeouts, malformed
// frames, graceful drain), and the sharded MeasurementStore's equivalence
// contract (shard count never changes results or warm-restart identity).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/service_stats.hpp"
#include "store/measurement_store.hpp"

namespace ecotune {
namespace {

namespace fs = std::filesystem;
using serve::FrameDecoder;
using serve::RpcRequest;

/// Fresh temp directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("ecotune_serve_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string sock() const {
    return (fs::path(path_) / "s.sock").string();
  }

 private:
  std::string path_;
};

Json make_request(const std::string& method, Json params,
                  std::int64_t id = 0,
                  const std::string& tenant = "default") {
  Json frame = Json::object();
  frame["schema"] = std::string(serve::kRpcSchema);
  frame["id"] = id;
  frame["tenant"] = tenant;
  frame["method"] = method;
  frame["params"] = std::move(params);
  return frame;
}

Json tune_params(const std::string& benchmark, const std::string& tuner) {
  Json params = Json::object();
  params["benchmark"] = benchmark;
  params["tuner"] = tuner;
  return params;
}

/// A full counter-rate signature for the paper's seven feature events (the
/// model rejects predict requests with missing counters).
Json predict_params(double scale) {
  Json rates = Json::object();
  for (const char* name :
       {"PAPI_BR_NTK", "PAPI_LD_INS", "PAPI_L2_ICR", "PAPI_BR_MSP",
        "PAPI_RES_STL", "PAPI_SR_INS", "PAPI_L2_DCR"}) {
    rates[name] = 1.0e8 * scale;
  }
  Json params = Json::object();
  params["counter_rates"] = std::move(rates);
  return params;
}

/// One shared warmed-up service for the dispatch tests (training runs
/// once); store off, so every compute request actually computes -- which
/// is exactly what the serial-vs-concurrent byte-identity tests need.
serve::TuningService& shared_service() {
  static serve::TuningService* service = [] {
    serve::ServiceConfig config;
    config.session = api::SessionConfig{}.seed(42).epochs(2);
    config.enable_debug_methods = true;
    return new serve::TuningService(std::move(config));
  }();
  return *service;
}

// --- Protocol: framing ----------------------------------------------------

TEST(ServeProtocol, FrameRoundTripsThroughDecoder) {
  const Json frame = make_request("ping", Json::object(), 7, "alice");
  const std::string wire = serve::encode_frame(frame);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->dump(-1), frame.dump(-1));
  EXPECT_TRUE(decoder.idle());
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(ServeProtocol, DecoderReassemblesByteAtATime) {
  const Json frame = make_request("stats", Json::object(), 3);
  const std::string wire = serve::encode_frame(frame);
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(wire.data() + i, 1);
    EXPECT_FALSE(decoder.next().has_value()) << "complete too early at " << i;
  }
  decoder.feed(wire.data() + wire.size() - 1, 1);
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->dump(-1), frame.dump(-1));
}

TEST(ServeProtocol, DecoderSplitsConcatenatedFrames) {
  const Json a = make_request("ping", Json::object(), 1);
  const Json b = make_request("methods", Json::object(), 2);
  const std::string wire = serve::encode_frame(a) + serve::encode_frame(b);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  ASSERT_TRUE(decoder.next().has_value());
  const auto second = decoder.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->dump(-1), b.dump(-1));
}

TEST(ServeProtocol, TruncatedFrameStaysPendingNotError) {
  const std::string wire =
      serve::encode_frame(make_request("ping", Json::object()));
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size() - 3);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.idle());
  EXPECT_GT(decoder.buffered(), 0u);
}

TEST(ServeProtocol, ZeroLengthFrameIsRejected) {
  const char zeros[4] = {0, 0, 0, 0};
  FrameDecoder decoder;
  decoder.feed(zeros, sizeof zeros);
  EXPECT_THROW((void)decoder.next(), Error);
}

TEST(ServeProtocol, OversizedFrameIsRejectedBeforeBuffering) {
  // A 4-byte prefix claiming ~4 GiB must be refused from the length alone.
  const char huge[4] = {'\x7f', '\xff', '\xff', '\xff'};
  FrameDecoder decoder;
  decoder.feed(huge, sizeof huge);
  EXPECT_THROW((void)decoder.next(), Error);
}

TEST(ServeProtocol, GarbageBodyIsRejected) {
  const char wire[7] = {0, 0, 0, 3, 'x', 'y', 'z'};
  FrameDecoder decoder;
  decoder.feed(wire, sizeof wire);
  EXPECT_THROW((void)decoder.next(), Error);
}

// --- Protocol: request/response shapes ------------------------------------

TEST(ServeProtocol, RequestDefaultsAndFields) {
  Json frame = Json::object();
  frame["method"] = std::string("ping");
  const RpcRequest minimal = RpcRequest::from_frame(frame);
  EXPECT_EQ(minimal.tenant, "default");
  EXPECT_EQ(minimal.method, "ping");
  EXPECT_EQ(minimal.timeout_ms, 0.0);

  const RpcRequest full = RpcRequest::from_frame(
      make_request("tune", tune_params("Lulesh", "static"), 9, "alice"));
  EXPECT_EQ(full.tenant, "alice");
  EXPECT_EQ(static_cast<std::int64_t>(full.id.as_number()), 9);
  EXPECT_EQ(full.params.at("benchmark").as_string(), "Lulesh");
}

TEST(ServeProtocol, RequestValidationRejectsBadShapes) {
  EXPECT_THROW((void)RpcRequest::from_frame(Json("not an object")), Error);
  EXPECT_THROW((void)RpcRequest::from_frame(Json::object()), Error);  // no method
  Json bad_schema = make_request("ping", Json::object());
  bad_schema["schema"] = std::string("ecotune.rpc.v999");
  EXPECT_THROW((void)RpcRequest::from_frame(bad_schema), Error);
  Json bad_tenant = make_request("ping", Json::object());
  bad_tenant["tenant"] = 7;
  EXPECT_THROW((void)RpcRequest::from_frame(bad_tenant), Error);
  Json bad_timeout = make_request("ping", Json::object());
  bad_timeout["timeout_ms"] = -1.0;
  EXPECT_THROW((void)RpcRequest::from_frame(bad_timeout), Error);
}

TEST(ServeProtocol, ResponseShapes) {
  const Json ok = serve::ok_response(Json(std::int64_t{4}), Json::object());
  EXPECT_EQ(ok.at("schema").as_string(), serve::kRpcSchema);
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_TRUE(ok.contains("result"));
  const Json err = serve::error_response(Json(), "overloaded", "queue full");
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(err.at("error").at("message").as_string(), "queue full");
}

// --- TuningService dispatch ------------------------------------------------

TEST(ServeService, PingAndMethods) {
  auto& service = shared_service();
  const Json pong = service.handle(make_request("ping", Json::object()));
  ASSERT_TRUE(pong.at("ok").as_bool()) << pong.dump(-1);
  EXPECT_TRUE(pong.at("result").at("pong").as_bool());

  const Json methods = service.handle(make_request("methods", Json::object()));
  ASSERT_TRUE(methods.at("ok").as_bool());
  const auto& names = methods.at("result").at("methods").as_array();
  EXPECT_GE(names.size(), 7u);
  EXPECT_FALSE(methods.at("result").at("benchmarks").as_array().empty());
}

TEST(ServeService, ErrorCodesDistinguishCallerFaults) {
  auto& service = shared_service();
  const Json unknown = service.handle(make_request("nosuch", Json::object()));
  EXPECT_FALSE(unknown.at("ok").as_bool());
  EXPECT_EQ(unknown.at("error").at("code").as_string(), "unknown_method");

  const Json bad_bench =
      service.handle(make_request("tune", tune_params("NoSuchApp", "static")));
  EXPECT_FALSE(bad_bench.at("ok").as_bool());
  EXPECT_EQ(bad_bench.at("error").at("code").as_string(), "bad_request");

  Json no_rates = make_request("predict", Json::object());
  const Json bad_predict = service.handle(no_rates);
  EXPECT_FALSE(bad_predict.at("ok").as_bool());
  EXPECT_EQ(bad_predict.at("error").at("code").as_string(), "bad_request");

  // A non-object frame still yields a well-formed error response.
  const Json not_object = service.handle(Json(3.14));
  EXPECT_FALSE(not_object.at("ok").as_bool());
  EXPECT_EQ(not_object.at("error").at("code").as_string(), "bad_request");
}

TEST(ServeService, PredictReturnsGridRecommendation) {
  auto& service = shared_service();
  const Json response =
      service.handle(make_request("predict", predict_params(1.0)));
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump(-1);
  const Json& result = response.at("result");
  EXPECT_GT(result.at("cf_mhz").as_number(), 0.0);
  EXPECT_GT(result.at("ucf_mhz").as_number(), 0.0);
  EXPECT_TRUE(result.contains("predicted_normalized_energy"));
}

TEST(ServeService, RequestKeyIsCanonicalAndTenantScoped) {
  const RpcRequest alice = RpcRequest::from_frame(
      make_request("tune", tune_params("Lulesh", "static"), 1, "alice"));
  const RpcRequest alice_again = RpcRequest::from_frame(
      make_request("tune", tune_params("Lulesh", "static"), 99, "alice"));
  const RpcRequest bob = RpcRequest::from_frame(
      make_request("tune", tune_params("Lulesh", "static"), 1, "bob"));
  // Same tenant+method+params -> same key (the id is delivery metadata);
  // another tenant gets its own key (isolated store namespace).
  EXPECT_EQ(serve::TuningService::request_key(alice),
            serve::TuningService::request_key(alice_again));
  EXPECT_NE(serve::TuningService::request_key(alice),
            serve::TuningService::request_key(bob));

  Json keyed = make_request("tune", tune_params("Lulesh", "static"));
  keyed["params"]["key"] = std::string("job-17");
  const RpcRequest explicit_key = RpcRequest::from_frame(keyed);
  EXPECT_EQ(serve::TuningService::request_key(explicit_key),
            "default/tune/job-17");
}

TEST(ServeService, RepeatedRequestIsByteIdentical) {
  auto& service = shared_service();
  const Json frame = make_request("tune", tune_params("EP", "static"));
  EXPECT_EQ(service.handle(frame).dump(-1), service.handle(frame).dump(-1));
}

TEST(ServeService, DtaReturnsReportDocument) {
  auto& service = shared_service();
  Json params = Json::object();
  params["benchmark"] = std::string("EP");
  const Json response = service.handle(make_request("dta", params));
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump(-1);
  EXPECT_EQ(response.at("result").at("schema").as_string(), "ecotune.dta.v1");
  EXPECT_EQ(response.at("result").at("reports").as_array().size(), 1u);
}

TEST(ServeService, ConcurrentResponsesAreByteIdenticalToSerial) {
  auto& service = shared_service();
  // >= 64 distinct in-flight requests: tenants x benchmarks x tuners plus
  // predict/ping traffic mixed in.
  const std::vector<std::string> tenants = {"alice", "bob", "carol", "dave"};
  const std::vector<std::string> benchmarks = {"EP", "IS", "Lulesh", "CoMD"};
  const std::vector<std::string> strategies = {"static", "ondemand",
                                               "conservative"};
  std::vector<Json> frames;
  std::int64_t id = 0;
  for (const auto& tenant : tenants) {
    for (const auto& benchmark : benchmarks) {
      for (const auto& tuner : strategies) {
        frames.push_back(make_request("tune", tune_params(benchmark, tuner),
                                      id++, tenant));
      }
      frames.push_back(make_request(
          "predict", predict_params(1.0 + 0.01 * static_cast<double>(id)),
          id, tenant));
      ++id;
    }
  }
  while (frames.size() < 64)
    frames.push_back(make_request("ping", Json::object(), id++));
  ASSERT_GE(frames.size(), 64u);

  std::vector<std::string> serial(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i)
    serial[i] = service.handle(frames[i]).dump(-1);

  // All 64+ requests genuinely in flight at once: one thread each, held at
  // a start barrier. (Raw threads are fine in tests; product code routes
  // through common/parallel.)
  std::vector<std::string> concurrent(frames.size());
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    threads.emplace_back([&, i] {
      while (!start.load()) std::this_thread::yield();
      concurrent[i] = service.handle(frames[i]).dump(-1);
    });
  }
  start.store(true);
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < frames.size(); ++i)
    EXPECT_EQ(concurrent[i], serial[i]) << "request " << i << " diverged";
}

TEST(ServeService, StatsSnapshotTracksTenantsAndTiming) {
  auto& service = shared_service();
  (void)service.handle(make_request("ping", Json::object(), 0, "alice"));
  const Json response = service.handle(make_request("stats", Json::object()));
  ASSERT_TRUE(response.at("ok").as_bool());
  const Json& result = response.at("result");
  EXPECT_GT(result.at("aggregate").at("requests").as_number(), 0.0);
  EXPECT_TRUE(result.at("aggregate").at("service_time").contains("p50_ms"));
  EXPECT_TRUE(result.at("aggregate").at("service_time").contains("p99_ms"));
  EXPECT_TRUE(result.at("tenants").contains("alice"));
  EXPECT_TRUE(result.contains("queue_depth"));
  // This fixture runs storeless: the store section reports mode=off with
  // zero shards (open() is what creates the sharded index).
  EXPECT_EQ(result.at("store").at("mode").as_string(), "off");
  EXPECT_EQ(result.at("store").at("shards").as_number(), 0.0);
}

TEST(ServeService, StatsCountsRequestsPerMethod) {
  auto& service = shared_service();
  const auto count = [&](const char* method) {
    const Json stats = service.handle(make_request("stats", Json::object()));
    return stats.at("result").at("methods").at(method).at("requests")
        .as_number();
  };
  const double pings = count("ping");
  const double other = count("other");
  (void)service.handle(make_request("ping", Json::object()));
  (void)service.handle(make_request("frobnicate", Json::object()));
  EXPECT_EQ(count("ping"), pings + 1);
  EXPECT_EQ(count("other"), other + 1);
  EXPECT_FALSE(service.handle(make_request("stats", Json::object()))
                   .at("result")
                   .at("methods")
                   .contains("frobnicate"));
}

TEST(ServeStats, MethodsMapHasTheFixedVocabularyShape) {
  serve::ServiceStats stats;
  stats.record("alice", "ping", true, 0.001);
  stats.record("alice", "tune", false, 0.002);
  stats.record("bob", "no-such-method", false, 0.003);
  stats.record("bob", "", false, 0.0);  // frame named no method
  const Json snap = stats.snapshot(0);

  // Every vocabulary name plus "other", nothing else, whatever was sent.
  std::vector<std::string> expected;
  for (std::string_view name : serve::kMethodNames)
    expected.emplace_back(name);
  expected.emplace_back("other");
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> keys;
  for (const auto& [name, bucket] : snap.at("methods").as_object()) {
    keys.push_back(name);
    std::vector<std::string> fields;
    for (const auto& [field, value] : bucket.as_object()) {
      fields.push_back(field);
      EXPECT_TRUE(value.is_number()) << name << "." << field;
    }
    EXPECT_EQ(fields, (std::vector<std::string>{"errors", "ok", "p50_ms",
                                                "p99_ms", "requests"}))
        << name;
  }
  EXPECT_EQ(keys, expected);

  const Json& methods = snap.at("methods");
  EXPECT_EQ(methods.at("ping").at("requests").as_number(), 1.0);
  EXPECT_EQ(methods.at("ping").at("ok").as_number(), 1.0);
  EXPECT_EQ(methods.at("tune").at("errors").as_number(), 1.0);
  EXPECT_EQ(methods.at("other").at("requests").as_number(), 2.0);
  EXPECT_EQ(methods.at("other").at("errors").as_number(), 2.0);
  EXPECT_EQ(methods.at("evaluate").at("requests").as_number(), 0.0);
  EXPECT_EQ(snap.at("aggregate").at("requests").as_number(), 4.0);
  // The existing fields are unchanged.
  EXPECT_EQ(snap.at("aggregate").at("service_time").at("samples").as_number(),
            4.0);
  EXPECT_EQ(snap.at("tenants").at("bob").at("errors").as_number(), 2.0);
  EXPECT_EQ(snap.at("queue_depth").as_number(), 0.0);
}

TEST(ServeStats, ConcurrentRecordAndSnapshotStayConsistent) {
  serve::ServiceStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      for (int i = 0; i < kPerThread; ++i)
        stats.record("tenant-" + std::to_string(t), "ping", i % 2 == 0,
                     0.001);
    });
  }
  threads.emplace_back([&stats] {
    for (int i = 0; i < 200; ++i) {
      const Json snap = stats.snapshot(0);
      const double requests = snap.at("aggregate").at("requests").as_number();
      const double ok = snap.at("aggregate").at("ok").as_number();
      const double errors = snap.at("aggregate").at("errors").as_number();
      EXPECT_EQ(requests, ok + errors);  // consistent under the lock
    }
  });
  for (auto& t : threads) t.join();
  const Json final_snap = stats.snapshot(0);
  EXPECT_EQ(final_snap.at("aggregate").at("requests").as_number(),
            static_cast<double>(kThreads * kPerThread));
}

/// Lines in a store file (one per entry appended).
long line_count(const std::string& file) {
  std::ifstream is(file);
  return static_cast<long>(std::count(std::istreambuf_iterator<char>(is),
                                      std::istreambuf_iterator<char>(), '\n'));
}

TEST(ServeService, SearchesWriteOneStoreEntryPerCall) {
  TempDir dir("entries_per_search");
  const std::string file =
      (fs::path(dir.path()) / "measurements.jsonl").string();
  const auto make_config = [&] {
    serve::ServiceConfig config;
    config.session =
        api::SessionConfig{}.seed(42).epochs(2).cache(dir.path(), "rw");
    return config;
  };
  Json evaluate_params = Json::object();
  evaluate_params["benchmark"] = "Lulesh";
  const Json evaluate = make_request("evaluate", evaluate_params, 1, "alice");
  const Json qlearn = make_request("tune", tune_params("Lulesh", "qlearn"), 2,
                                   "alice");

  std::string cold_evaluate;
  std::string cold_qlearn;
  {
    serve::TuningService cold(make_config());
    store::MeasurementStore& store = cold.session().store();

    long writes = store.stats().writes;
    long lines = line_count(file);
    const Json e = cold.handle(evaluate);
    ASSERT_TRUE(e.at("ok").as_bool()) << e.dump(-1);
    cold_evaluate = e.dump(-1);
    // The savings row, the static sweep and the two DTA engine chunks.
    EXPECT_EQ(store.stats().writes - writes, 4);
    EXPECT_EQ(line_count(file) - lines, 4);

    writes = store.stats().writes;
    lines = line_count(file);
    const Json q = cold.handle(qlearn);
    ASSERT_TRUE(q.at("ok").as_bool()) << q.dump(-1);
    cold_qlearn = q.dump(-1);
    EXPECT_EQ(store.stats().writes - writes, 1);
    EXPECT_EQ(line_count(file) - lines, 1);
  }

  serve::TuningService warm(make_config());
  EXPECT_EQ(warm.handle(evaluate).dump(-1), cold_evaluate);
  EXPECT_EQ(warm.handle(qlearn).dump(-1), cold_qlearn);
  const store::StoreStats stats = warm.session().store().stats();
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.writes, 0);
}

// --- AF_UNIX server --------------------------------------------------------

/// Minimal blocking test client speaking ecotune.rpc.v1.
class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The server thread may still be between bind and accept; the backlog
    // makes connect succeed as soon as listen() ran.
    for (int attempt = 0; attempt < 250; ++attempt) {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        connected_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return connected_; }

  void send_frame(const Json& frame) { send_bytes(serve::encode_frame(frame)); }

  void send_bytes(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GE(n, 0) << "send failed: " << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocks for the next response frame; nullopt on EOF.
  std::optional<Json> read_response() {
    char buf[4096];
    for (;;) {
      if (auto frame = decoder_.next()) return frame;
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n == 0) return std::nullopt;
      if (n < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
  }

  std::vector<Json> read_responses(std::size_t count) {
    std::vector<Json> out;
    while (out.size() < count) {
      auto frame = read_response();
      if (!frame.has_value()) break;
      out.push_back(std::move(*frame));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameDecoder decoder_;
};

/// Serves `service` on a background thread for one test.
class ServerFixture {
 public:
  ServerFixture(serve::TuningService& service, const std::string& sock_path)
      : server_(service, sock_path) {
    server_.bind_and_listen();
    thread_ = std::thread([this] { server_.serve(); });
  }
  ~ServerFixture() { stop(); }
  serve::Server& server() { return server_; }
  void stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }

 private:
  serve::Server server_;
  std::thread thread_;
};

TEST(ServeServer, EndToEndRoundTripAndCleanShutdown) {
  TempDir dir("e2e");
  fs::create_directories(dir.path());
  auto& service = shared_service();
  ServerFixture fixture(service, dir.sock());
  {
    TestClient client(dir.sock());
    ASSERT_TRUE(client.connected());
    client.send_frame(make_request("ping", Json::object(), 1));
    client.send_frame(make_request("tune", tune_params("EP", "static"), 2));
    const auto responses = client.read_responses(2);
    ASSERT_EQ(responses.size(), 2u);
    for (const auto& r : responses)
      EXPECT_TRUE(r.at("ok").as_bool()) << r.dump(-1);
    // The socket answer must be bitwise the in-process answer.
    const Json direct =
        service.handle(make_request("tune", tune_params("EP", "static"), 2));
    const Json& over_socket =
        static_cast<std::int64_t>(responses[0].at("id").as_number()) == 2
            ? responses[0]
            : responses[1];
    EXPECT_EQ(over_socket.dump(-1), direct.dump(-1));
  }
  fixture.stop();
  EXPECT_FALSE(fs::exists(dir.sock())) << "socket file must be unlinked";
}

TEST(ServeServer, MalformedFrameIsRejectedAndConnectionDropped) {
  TempDir dir("garbage");
  fs::create_directories(dir.path());
  ServerFixture fixture(shared_service(), dir.sock());
  {
    TestClient client(dir.sock());
    ASSERT_TRUE(client.connected());
    // Length prefix claiming ~2 GiB: rejected from the header alone.
    client.send_bytes(std::string("\x7f\xff\xff\xff", 4));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->at("ok").as_bool());
    EXPECT_EQ(response->at("error").at("code").as_string(), "bad_request");
    EXPECT_FALSE(client.read_response().has_value()) << "expected EOF";
  }
  // The daemon survives; a fresh connection still works.
  TestClient again(dir.sock());
  ASSERT_TRUE(again.connected());
  again.send_frame(make_request("ping", Json::object(), 5));
  const auto pong = again.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("ok").as_bool());
}

/// Single-worker service with a tiny queue for the robustness tests; the
/// debug "sleep" method holds the one worker busy deterministically.
serve::TuningService& tiny_queue_service() {
  static serve::TuningService* service = [] {
    serve::ServiceConfig config;
    config.session = api::SessionConfig{}.seed(42).epochs(1);
    config.workers = 1;
    config.queue_limit = 1;
    config.enable_debug_methods = true;
    return new serve::TuningService(std::move(config));
  }();
  return *service;
}

Json sleep_request(double ms, std::int64_t id) {
  Json params = Json::object();
  params["ms"] = ms;
  return make_request("sleep", params, id);
}

TEST(ServeServer, FullQueueAnswersOverloadedInsteadOfBlocking) {
  TempDir dir("overload");
  fs::create_directories(dir.path());
  ServerFixture fixture(tiny_queue_service(), dir.sock());
  TestClient client(dir.sock());
  ASSERT_TRUE(client.connected());
  // Busy the single worker, fill the one queue slot, then a burst: the
  // burst must be answered immediately with overloaded errors -- never
  // deadlock, never silent drop.
  constexpr int kBurst = 8;
  client.send_frame(sleep_request(400, 0));
  client.send_frame(sleep_request(400, 1));
  for (int i = 0; i < kBurst; ++i)
    client.send_frame(make_request("ping", Json::object(), 2 + i));
  const auto responses = client.read_responses(2 + kBurst);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(2 + kBurst));
  int overloaded = 0;
  for (const auto& r : responses) {
    if (!r.at("ok").as_bool() &&
        r.at("error").at("code").as_string() == "overloaded") {
      ++overloaded;
    }
  }
  EXPECT_GE(overloaded, 1) << "burst against a full queue must shed load";
}

TEST(ServeServer, QueuedRequestPastDeadlineTimesOut) {
  TempDir dir("timeout");
  fs::create_directories(dir.path());
  ServerFixture fixture(tiny_queue_service(), dir.sock());
  TestClient client(dir.sock());
  ASSERT_TRUE(client.connected());
  client.send_frame(sleep_request(300, 0));
  // Let the single worker pick the sleep up first -- the queue slot must
  // be free so the doomed request is *queued* (and expires there) rather
  // than shed as overloaded.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Json doomed = make_request("ping", Json::object(), 1);
  doomed["timeout_ms"] = 1.0;
  client.send_frame(doomed);
  const auto responses = client.read_responses(2);
  ASSERT_EQ(responses.size(), 2u);
  const Json& second =
      static_cast<std::int64_t>(responses[0].at("id").as_number()) == 1
          ? responses[0]
          : responses[1];
  EXPECT_FALSE(second.at("ok").as_bool());
  EXPECT_EQ(second.at("error").at("code").as_string(), "timeout");
}

TEST(ServeServer, GracefulStopDrainsQueuedRequests) {
  TempDir dir("drain");
  fs::create_directories(dir.path());
  serve::ServiceConfig config;
  config.session = api::SessionConfig{}.seed(42).epochs(1);
  config.workers = 1;
  config.queue_limit = 64;
  config.enable_debug_methods = true;
  serve::TuningService service(std::move(config));
  ServerFixture fixture(service, dir.sock());
  TestClient client(dir.sock());
  ASSERT_TRUE(client.connected());
  constexpr int kQueued = 5;
  client.send_frame(sleep_request(200, 0));
  for (int i = 1; i <= kQueued; ++i)
    client.send_frame(make_request("ping", Json::object(), i));
  // Give the listener a beat to queue everything, then stop mid-sleep:
  // every already-accepted request must still be answered before EOF.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fixture.server().request_stop();
  const auto responses = client.read_responses(1 + kQueued);
  EXPECT_EQ(responses.size(), static_cast<std::size_t>(1 + kQueued));
  for (const auto& r : responses)
    EXPECT_TRUE(r.at("ok").as_bool()) << r.dump(-1);
  EXPECT_FALSE(client.read_response().has_value()) << "expected EOF";
  fixture.stop();
}

// --- Sharded measurement store ---------------------------------------------

/// Built by append (not operator+ on a literal) to sidestep GCC 12's
/// -Wrestrict false positive on "lit" + std::to_string(...).
std::string stress_task(int thread, int index) {
  std::string task = "t";
  task += std::to_string(thread);
  task += "/task-";
  task += std::to_string(index);
  return task;
}

Json payload_for(int i) {
  Json payload = Json::object();
  payload["value"] = 0.5 + static_cast<double>(i);
  payload["tag"] = "entry-" + std::to_string(i);
  return payload;
}

TEST(ServeShardedStore, ShardCountNeverChangesLookupResults) {
  TempDir dir("shards_equiv");
  constexpr int kEntries = 64;
  {
    store::MeasurementStore writer;
    writer.open(dir.path(), store::StoreMode::kReadWrite, {}, 4);
    EXPECT_EQ(writer.shard_count(), 4u);
    for (int i = 0; i < kEntries; ++i) {
      writer.insert({"task-" + std::to_string(i),
                     static_cast<std::uint64_t>(1000 + i)},
                    payload_for(i));
    }
    EXPECT_EQ(writer.size(), static_cast<std::size_t>(kEntries));
  }
  // Reload the same file under different shard counts: identical answers,
  // identical counter totals, for every key.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{16}}) {
    store::MeasurementStore reader;
    reader.open(dir.path(), store::StoreMode::kReadOnly, {}, shards);
    EXPECT_EQ(reader.shard_count(), shards);
    EXPECT_EQ(reader.size(), static_cast<std::size_t>(kEntries));
    for (int i = 0; i < kEntries; ++i) {
      const auto hit = reader.lookup({"task-" + std::to_string(i),
                                      static_cast<std::uint64_t>(1000 + i)});
      ASSERT_NE(hit, nullptr) << "shards=" << shards << " i=" << i;
      EXPECT_EQ(hit->dump(-1), payload_for(i).dump(-1));
    }
    const auto miss = reader.lookup({"task-0", 999});  // stale fingerprint
    EXPECT_EQ(miss, nullptr);
    const store::StoreStats stats = reader.stats();
    EXPECT_EQ(stats.hits, kEntries);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.invalidated, 1);
  }
}

TEST(ServeShardedStore, DefaultShardCountAndOffModeBehavior) {
  TempDir dir("shards_default");
  store::MeasurementStore store;
  store.open(dir.path(), store::StoreMode::kReadWrite);
  EXPECT_EQ(store.shard_count(), store::MeasurementStore::kDefaultShardCount);

  store::MeasurementStore off;  // never opened: lookups miss quietly
  EXPECT_EQ(off.lookup({"task", 1}), nullptr);
  EXPECT_EQ(off.stats().hits, 0);
}

TEST(ServeShardedStore, ConcurrentInsertAndLookupKeepCountersExact) {
  TempDir dir("shards_stress");
  store::MeasurementStore store;
  store.open(dir.path(), store::StoreMode::kReadWrite, {}, 8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string task = stress_task(t, i);
        const auto fp = static_cast<std::uint64_t>(t * kPerThread + i);
        store.insert({task, fp}, payload_for(i));
        const auto hit = store.lookup({task, fp});
        EXPECT_NE(hit, nullptr);
      }
    });
  }
  // Concurrent stats polling must always see consistent snapshots.
  threads.emplace_back([&store] {
    for (int i = 0; i < 200; ++i) {
      const store::StoreStats s = store.stats();
      EXPECT_GE(s.hits, 0);
      EXPECT_GE(s.writes, 0);
      (void)store.summary();
    }
  });
  for (auto& t : threads) t.join();
  const store::StoreStats s = store.stats();
  EXPECT_EQ(s.hits, static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.writes, static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kThreads) * kPerThread);

  // Warm-restart identity across a different shard count: everything the
  // concurrent run wrote reloads and hits.
  store::MeasurementStore reloaded;
  reloaded.open(dir.path(), store::StoreMode::kReadOnly, {}, 16);
  EXPECT_EQ(reloaded.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string task = stress_task(t, i);
      const auto fp = static_cast<std::uint64_t>(t * kPerThread + i);
      ASSERT_NE(reloaded.lookup({task, fp}), nullptr);
    }
  }
  EXPECT_EQ(reloaded.stats().misses, 0);
}

}  // namespace
}  // namespace ecotune
