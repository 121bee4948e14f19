// Shared pieces of the perfbench harness: the monotonic clock, the
// in-memory span recorder, and the two measured phases (DTA campaigns and
// open-loop daemon traffic). The harness drives ecotune only through the
// installed public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "store/measurement_store.hpp"
#include "workload/benchmark.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary process-wide epoch (steady clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// Spans kept in memory and written out when the harness ends: name,
/// start, end, the span that caused it, and free-form attributes (store
/// counter deltas, sample counts).
class Tracer {
 public:
  /// Opens a span; `parent` is the id of the causing span or -1.
  int begin(std::string name, int parent);
  void end(int id, ecotune::Json attrs = ecotune::Json::object());
  [[nodiscard]] ecotune::Json to_json() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    ecotune::Json attrs;
  };
  std::vector<Span> spans_;
};

// -- Campaign phase ---------------------------------------------------------

struct CampaignInputs {
  std::uint64_t seed = 42;
  std::vector<ecotune::workload::Benchmark> apps;
};

struct CampaignRun {
  std::string text;  ///< the ecotune_dta text report
  double ms = 0;     ///< Session construction through Session destruction
  ecotune::store::StoreStats stats;
  std::size_t entries = 0;       ///< store entries when the campaign ended
  std::uintmax_t file_bytes = 0;  ///< measurements.jsonl size (0 if off)
};

/// One 19-benchmark DTA campaign exactly as ecotune_dta runs it
/// (train_model + run_dta_campaign + text sink) on a fresh Session.
/// `cache_dir` empty means the store is off.
[[nodiscard]] CampaignRun run_campaign(const CampaignInputs& in, int jobs,
                                       const std::string& cache_dir);

/// The same campaign split into its public calls -- Session constructor,
/// acquire_dataset, EnergyModel::train, use_model, run_dta_campaign and the
/// text sink -- with one span per call under a root span named `label`.
[[nodiscard]] CampaignRun run_campaign_traced(const CampaignInputs& in,
                                              int jobs,
                                              const std::string& cache_dir,
                                              Tracer& tracer,
                                              const std::string& label);

[[nodiscard]] ecotune::Json stats_json(const ecotune::store::StoreStats& s);

// -- Daemon phase -----------------------------------------------------------

/// One generated request: due offset from the window start, the client
/// connection it goes out on, and its frame.
struct Request {
  double due_ms = 0;
  int conn = 0;
  int repeat_of = -1;  ///< index of the request it repeats, or -1
  std::string method;
  ecotune::Json frame;
};

/// What the generator saw for one request (times in ns, steady clock).
struct Outcome {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = -1;
  std::int64_t recv_ns = -1;
  ecotune::Json response;  ///< null when no response arrived
};

/// A TuningService behind a serve::Server on a unix socket, serving from
/// its own thread until destruction (which drains and joins).
class Daemon {
 public:
  Daemon(const ecotune::serve::ServiceConfig& config,
         const std::string& socket_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Opens `n` nonblocking client connections to the daemon.
  [[nodiscard]] std::vector<int> connect_clients(int n) const;
  [[nodiscard]] ecotune::serve::TuningService& service() { return service_; }

 private:
  ecotune::serve::TuningService service_;
  ecotune::serve::Server server_;
  std::thread thread_;
};

/// Sends every request at its due time from one busy-polling thread,
/// regardless of replies (open loop), and collects the replies on the
/// same thread.
/// Frame ids must be consecutive. Gives up `grace_s` seconds after the
/// last due time.
[[nodiscard]] std::vector<Outcome> drive_open_loop(
    const std::vector<Request>& requests, const std::vector<int>& fds,
    double grace_s);

/// Calls TuningService::handle directly on every frame, in order.
struct Replay {
  std::vector<double> handle_ms;
  std::vector<std::string> mode;  ///< "hit", "miss" or "none" (no lookup)
  std::vector<std::string> response;  ///< compact dump per request
  std::vector<bool> ok;
};
[[nodiscard]] Replay replay(ecotune::serve::TuningService& service,
                            const std::vector<Request>& requests);

}  // namespace perfbench
