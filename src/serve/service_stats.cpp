#include "serve/service_stats.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace ecotune::serve {
namespace {

/// The "methods" key that pools every name outside kMethodNames.
constexpr std::string_view kOtherMethod = "other";

/// Nearest-rank quantile over a sorted sample vector.
double quantile_ms(const std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_seconds.size() - 1) + 0.5);
  return sorted_seconds[std::min(rank, sorted_seconds.size() - 1)] * 1000.0;
}

Json bucket_json(long requests, long ok, long errors) {
  Json j = Json::object();
  j["requests"] = static_cast<std::int64_t>(requests);
  j["ok"] = static_cast<std::int64_t>(ok);
  j["errors"] = static_cast<std::int64_t>(errors);
  return j;
}

}  // namespace

ServiceStats::ServiceStats(std::size_t max_samples)
    : max_samples_(max_samples == 0 ? 1 : max_samples) {
  const MutexLock lock(mutex_);
  for (std::string_view name : kMethodNames) methods_[std::string(name)];
  methods_[std::string(kOtherMethod)];
}

void ServiceStats::add_sample(Series& series, double seconds) const {
  if (series.samples.size() < max_samples_) {
    series.samples.push_back(seconds);
  } else {
    series.samples[series.cursor] = seconds;
  }
  series.cursor = (series.cursor + 1) % max_samples_;
}

void ServiceStats::record(const std::string& tenant, std::string_view method,
                          bool ok, double service_seconds) {
  const MutexLock lock(mutex_);
  auto bump = [ok](Bucket& b) {
    ++b.requests;
    if (ok) {
      ++b.ok;
    } else {
      ++b.errors;
    }
  };
  auto it = methods_.find(method);
  if (it == methods_.end()) it = methods_.find(kOtherMethod);
  for (Series* series : {&aggregate_, &it->second}) {
    bump(series->counts);
    add_sample(*series, service_seconds);
  }
  bump(tenants_[tenant]);
}

Json ServiceStats::snapshot(long queue_depth) const {
  Json j = Json::object();
  // Copy under the lock, sort outside it: workers record while we sort.
  Series aggregate;
  std::vector<std::pair<std::string, Series>> methods;
  {
    const MutexLock lock(mutex_);
    aggregate = aggregate_;
    methods.assign(methods_.begin(), methods_.end());
    Json tenants = Json::object();
    for (const auto& [name, b] : tenants_)
      tenants[name] = bucket_json(b.requests, b.ok, b.errors);
    j["tenants"] = std::move(tenants);
  }
  // p50/p99 of one sample ring, sorted in place.
  const auto add_quantiles = [](Json& into, std::vector<double>& samples) {
    std::sort(samples.begin(), samples.end());
    into["p50_ms"] = quantile_ms(samples, 0.50);
    into["p99_ms"] = quantile_ms(samples, 0.99);
  };
  Json by_method = Json::object();
  for (auto& [name, series] : methods) {
    const Bucket& b = series.counts;
    Json m = bucket_json(b.requests, b.ok, b.errors);
    add_quantiles(m, series.samples);
    by_method[name] = std::move(m);
  }
  const Bucket& a = aggregate.counts;
  j["aggregate"] = bucket_json(a.requests, a.ok, a.errors);
  Json timing = Json::object();
  add_quantiles(timing, aggregate.samples);
  timing["samples"] = aggregate.samples.size();
  j["aggregate"]["service_time"] = std::move(timing);
  j["methods"] = std::move(by_method);
  j["queue_depth"] = static_cast<std::int64_t>(queue_depth);
  return j;
}

}  // namespace ecotune::serve
