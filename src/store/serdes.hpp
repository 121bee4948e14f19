#pragma once

#include "common/config.hpp"
#include "common/json.hpp"

namespace ecotune::store {

/// JSON (de)serialization of the common value types measurement consumers
/// cache. Doubles survive the round trip bit-exactly (Json emits them via
/// std::to_chars and parses via std::from_chars), which is what lets a warm
/// store replay produce byte-identical driver output. Consumer-owned types
/// serialize in their own modules (ptf::Measurement in ptf/objectives,
/// core::DtaResult/SavingsRow in core/dta_serdes) so the store stays a
/// common-only base layer.

[[nodiscard]] Json to_json(const SystemConfig& c);
[[nodiscard]] SystemConfig config_from_json(const Json& j);

/// One field of a sweep payload, stored as a column: payload[field] holds
/// one value per sweep point, in sweep order. Throws Error unless that
/// column is an array of exactly `points` values, so a truncated sweep or a
/// payload of another schema re-simulates instead of answering.
[[nodiscard]] const Json::Array& sweep_column(const Json& payload,
                                              const char* field,
                                              std::size_t points);

}  // namespace ecotune::store
