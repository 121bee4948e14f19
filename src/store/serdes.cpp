#include "store/serdes.hpp"

#include "common/error.hpp"

namespace ecotune::store {

Json to_json(const SystemConfig& c) {
  Json j = Json::object();
  j["threads"] = c.threads;
  j["cf_mhz"] = c.core.as_mhz();
  j["ucf_mhz"] = c.uncore.as_mhz();
  return j;
}

SystemConfig config_from_json(const Json& j) {
  return SystemConfig{j.at("threads").as_int(),
                      CoreFreq::mhz(j.at("cf_mhz").as_int()),
                      UncoreFreq::mhz(j.at("ucf_mhz").as_int())};
}

const Json::Array& sweep_column(const Json& payload, const char* field,
                                std::size_t points) {
  const Json::Array& column = payload.at(field).as_array();
  ensure(column.size() == points, "payload covers a different sweep");
  return column;
}

}  // namespace ecotune::store
