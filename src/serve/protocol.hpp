#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace ecotune::serve {

/// Wire schema identifier stamped on every response (and accepted, when
/// present, on requests). Bump on any incompatible protocol change.
inline constexpr std::string_view kRpcSchema = "ecotune.rpc.v1";

/// Hard per-frame size ceiling. A length prefix beyond this is rejected as
/// malformed before any allocation: a stray client writing raw bytes at the
/// socket must not make the daemon reserve gigabytes.
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u << 20;  // 8 MiB

/// Frames a payload for the wire: 4-byte big-endian byte length followed by
/// the compact (single-line) JSON dump. Length-prefixed rather than
/// newline-delimited so payloads stay free to contain anything JSON can.
[[nodiscard]] std::string encode_frame(const Json& payload);

/// Incremental decoder for the inbound byte stream of one connection.
///
/// feed() appends raw bytes; next() yields complete frames in arrival
/// order. Malformed input -- an oversized or empty length prefix, or a
/// body that is not valid JSON -- throws ecotune::Error with a diagnostic
/// naming the offending size or parse failure; the connection owner is
/// expected to answer with a protocol error and drop the connection, since
/// a corrupted stream has no recoverable frame boundary.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw bytes from the wire.
  void feed(const char* data, std::size_t size);

  /// Returns the next complete frame, or nullopt if more bytes are needed.
  /// Throws ecotune::Error on malformed input (see class comment).
  [[nodiscard]] std::optional<Json> next();

  /// True when no partial frame is pending -- the clean-EOF condition. A
  /// peer that disconnects while idle() is false truncated a frame.
  [[nodiscard]] bool idle() const { return buffer_.empty(); }

  /// Bytes currently buffered (diagnostics).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
};

/// One parsed request of the ecotune.rpc.v1 protocol:
///   {"id": <any>, "tenant": "team-a", "method": "tune",
///    "params": {...}, "timeout_ms": 30000}
/// Only "method" is required. "id" is echoed verbatim in the response (null
/// if absent); "tenant" defaults to "default"; "params" defaults to {};
/// "timeout_ms" (0 = the service default) bounds the time the request may
/// wait in the daemon's queue before it is answered with a timeout error.
struct RpcRequest {
  Json id;
  std::string tenant = "default";
  std::string method;
  Json params = Json::object();
  double timeout_ms = 0;

  /// Parses and validates a decoded frame; throws ecotune::Error with a
  /// field-naming message on any shape violation (non-object frame, absent
  /// or empty method, wrong field types, mismatched "schema").
  [[nodiscard]] static RpcRequest from_frame(const Json& frame);
};

/// The method a decoded frame names, or "" when it names none. Stats
/// accounting peeks with this before (or without) full validation.
[[nodiscard]] std::string frame_method(const Json& frame);

/// {"schema": "ecotune.rpc.v1", "id": <id>, "ok": true, "result": <result>}
[[nodiscard]] Json ok_response(const Json& id, Json result);

/// {"schema": ..., "id": <id>, "ok": false,
///  "error": {"code": "...", "message": "..."}}
/// Codes in use: bad_request, unknown_method, overloaded, timeout, internal.
[[nodiscard]] Json error_response(const Json& id, std::string_view code,
                                  std::string_view message);

}  // namespace ecotune::serve
