#include "serve/protocol.hpp"

#include <cstdint>

#include "common/error.hpp"

namespace ecotune::serve {
namespace {

constexpr std::size_t kHeaderBytes = 4;

std::uint32_t read_be32(const char* p) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]));
}

}  // namespace

std::string encode_frame(const Json& payload) {
  const std::string body = payload.dump(-1);
  std::string frame;
  frame.reserve(kHeaderBytes + body.size());
  const auto size = static_cast<std::uint32_t>(body.size());
  frame.push_back(static_cast<char>((size >> 24) & 0xFF));
  frame.push_back(static_cast<char>((size >> 16) & 0xFF));
  frame.push_back(static_cast<char>((size >> 8) & 0xFF));
  frame.push_back(static_cast<char>(size & 0xFF));
  frame += body;
  return frame;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::optional<Json> FrameDecoder::next() {
  if (buffer_.size() < kHeaderBytes) return std::nullopt;
  const std::size_t body_size = read_be32(buffer_.data());
  if (body_size == 0) {
    throw Error("rpc frame: zero-length body (empty frames are malformed)");
  }
  if (body_size > max_frame_bytes_) {
    // Reject before buffering the body: the length may be garbage (e.g. a
    // peer speaking a different protocol), and honoring it would let one
    // connection allocate an arbitrary amount of memory.
    throw Error("rpc frame: declared body of " + std::to_string(body_size) +
                " bytes exceeds the " + std::to_string(max_frame_bytes_) +
                "-byte frame limit (garbage or oversized frame)");
  }
  if (buffer_.size() < kHeaderBytes + body_size) return std::nullopt;
  Json frame;
  try {
    frame = Json::parse(buffer_.substr(kHeaderBytes, body_size));
  } catch (const std::exception& e) {
    throw Error("rpc frame: body is not valid JSON (" + std::string(e.what()) +
                ")");
  }
  buffer_.erase(0, kHeaderBytes + body_size);
  return frame;
}

RpcRequest RpcRequest::from_frame(const Json& frame) {
  ensure(frame.is_object(), "rpc request: frame is not a JSON object");
  if (frame.contains("schema")) {
    ensure(frame.at("schema").is_string() &&
               frame.at("schema").as_string() == kRpcSchema,
           "rpc request: unsupported schema (expected '" +
               std::string(kRpcSchema) + "')");
  }
  RpcRequest req;
  if (frame.contains("id")) req.id = frame.at("id");
  ensure(frame.contains("method") && frame.at("method").is_string() &&
             !frame.at("method").as_string().empty(),
         "rpc request: missing or empty 'method'");
  req.method = frame.at("method").as_string();
  if (frame.contains("tenant")) {
    ensure(frame.at("tenant").is_string() &&
               !frame.at("tenant").as_string().empty(),
           "rpc request: 'tenant' must be a non-empty string");
    req.tenant = frame.at("tenant").as_string();
  }
  if (frame.contains("params")) {
    ensure(frame.at("params").is_object(),
           "rpc request: 'params' must be an object");
    req.params = frame.at("params");
  }
  if (frame.contains("timeout_ms")) {
    ensure(frame.at("timeout_ms").is_number() &&
               frame.at("timeout_ms").as_number() >= 0,
           "rpc request: 'timeout_ms' must be a non-negative number");
    req.timeout_ms = frame.at("timeout_ms").as_number();
  }
  return req;
}

std::string frame_method(const Json& frame) {
  if (frame.is_object() && frame.contains("method") &&
      frame.at("method").is_string()) {
    return frame.at("method").as_string();
  }
  return {};
}

Json ok_response(const Json& id, Json result) {
  Json j = Json::object();
  j["schema"] = std::string(kRpcSchema);
  j["id"] = id;
  j["ok"] = true;
  j["result"] = std::move(result);
  return j;
}

Json error_response(const Json& id, std::string_view code,
                    std::string_view message) {
  Json j = Json::object();
  j["schema"] = std::string(kRpcSchema);
  j["id"] = id;
  j["ok"] = false;
  Json err = Json::object();
  err["code"] = std::string(code);
  err["message"] = std::string(message);
  j["error"] = std::move(err);
  return j;
}

}  // namespace ecotune::serve
