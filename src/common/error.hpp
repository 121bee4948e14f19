#pragma once

#include <stdexcept>
#include <string>

namespace ecotune {

/// Base class for all errors raised by the ecotune library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a caller violates an API precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

/// Raised when a configuration (file, parameter set) is invalid.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// Throws PreconditionError with `message` unless `condition` holds.
inline void ensure(bool condition, const std::string& message) {
  if (!condition) throw PreconditionError(message);
}

/// Literal-message overload: builds no std::string unless the check fails,
/// so a passing check on a hot path costs one branch.
inline void ensure(bool condition, const char* message) {
  if (!condition) throw PreconditionError(message);
}

}  // namespace ecotune
