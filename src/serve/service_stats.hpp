#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace ecotune::serve {

/// The service's method vocabulary, sorted. "sleep" answers only when the
/// service enables debug methods.
inline constexpr std::array<std::string_view, 8> kMethodNames{
    "dta", "evaluate", "methods", "ping", "predict", "sleep", "stats", "tune"};

/// Per-tenant, per-method and aggregate request accounting for the tuning
/// service, safe to update from every worker and to snapshot concurrently
/// from the "stats" endpoint. Service times feed bounded recent-sample
/// rings (one for the aggregate, one per method) from which snapshot()
/// derives p50/p99 (over at most `max_samples` recent requests each, so the
/// quantiles track current behavior and memory stays bounded no matter how
/// long the daemon lives).
///
/// Wall-clock times are observability only: they never feed any response
/// payload of the deterministic methods, so the service's byte-identity
/// contract is untouched by timing jitter.
class ServiceStats {
 public:
  explicit ServiceStats(std::size_t max_samples = 4096);

  /// Records one finished request (ok or answered with an error response).
  /// A `method` outside kMethodNames (or empty, when the frame named none)
  /// counts under "other", so clients cannot grow the method map.
  void record(const std::string& tenant, std::string_view method, bool ok,
              double service_seconds) ECOTUNE_EXCLUDES(mutex_);

  /// Snapshot document:
  ///   {"aggregate": {"requests": N, "ok": N, "errors": N,
  ///                  "service_time": {"p50_ms":..., "p99_ms":...,
  ///                                   "samples": N}},
  ///    "methods": {"<method>": {"requests":..., "ok":..., "errors":...,
  ///                             "p50_ms":..., "p99_ms":...}},
  ///    "tenants": {"<tenant>": {"requests":..., "ok":..., "errors":...}},
  ///    "queue_depth": <caller-supplied gauge>}
  /// "methods" always lists every kMethodNames entry plus "other".
  [[nodiscard]] Json snapshot(long queue_depth) const ECOTUNE_EXCLUDES(mutex_);

 private:
  struct Bucket {
    long requests = 0;
    long ok = 0;
    long errors = 0;
  };
  struct Series {
    Bucket counts;
    /// Ring buffer of recent service times (seconds), cursor wraps.
    std::vector<double> samples;
    std::size_t cursor = 0;
  };

  void add_sample(Series& series, double seconds) const;

  std::size_t max_samples_;
  mutable Mutex mutex_;
  Series aggregate_ ECOTUNE_GUARDED_BY(mutex_);
  /// Keyed by kMethodNames plus "other"; filled at construction, so its
  /// key set never changes.
  std::map<std::string, Series, std::less<>> methods_
      ECOTUNE_GUARDED_BY(mutex_);
  std::map<std::string, Bucket> tenants_ ECOTUNE_GUARDED_BY(mutex_);
};

}  // namespace ecotune::serve
