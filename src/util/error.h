// Typed error reporting for the public API surface.
//
// Protocol outcomes (result vs. revocation) are NOT errors — they are the
// Theorem 7 disjunction and stay in ExecutionOutcome. Error/Expected cover
// the boundary cases around them: invalid specs, rejected submissions,
// exhausted budgets. Public entry points that used to throw
// std::invalid_argument for recoverable caller mistakes return
// Expected<T> instead; constructors (which cannot return) validate via
// SimulationSpec::validate() and only throw on contract violations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace vmat {

enum class ErrorCode : std::uint8_t {
  kInvalidArgument,    ///< a parameter outside its documented domain
  kInvalidSpec,        ///< SimulationSpec::validate() failure
  kQueueFull,          ///< engine admission control rejected the submission
  kDeadlineExceeded,   ///< per-query attempt budget exhausted (engine)
  kBudgetExhausted,    ///< engine-wide round budget exhausted
  /// Execution ended in revocation, not a result. No longer produced (the
  /// engine reports kDeadlineExceeded); kept because error codes travel on
  /// the serve wire by value, so removing it would renumber kUnavailable.
  kDisrupted,
  kUnavailable,        ///< no data: e.g. MIN over an empty population
};

[[nodiscard]] constexpr const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "invalid-argument";
    case ErrorCode::kInvalidSpec: return "invalid-spec";
    case ErrorCode::kQueueFull: return "queue-full";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kBudgetExhausted: return "budget-exhausted";
    case ErrorCode::kDisrupted: return "disrupted";
    case ErrorCode::kUnavailable: return "unavailable";
  }
  return "?";
}

struct Error {
  ErrorCode code{ErrorCode::kInvalidArgument};
  std::string message;

  [[nodiscard]] std::string to_string() const {
    std::string out = vmat::to_string(code);
    if (!message.empty()) {
      out += ": ";
      out += message;
    }
    return out;
  }

  friend bool operator==(const Error&, const Error&) = default;
};

/// Minimal Expected: a value or an Error. No exceptions on the happy path;
/// value() on an error (or error() on a value) is a programming bug and
/// terminates via the std::optional contract.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(*-explicit-*)
  Expected(Error error) : error_(std::move(error)) {}  // NOLINT(*-explicit-*)

  [[nodiscard]] bool has_value() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return has_value(); }

  [[nodiscard]] const T& value() const { return value_.value(); }
  [[nodiscard]] T& value() { return value_.value(); }
  [[nodiscard]] const T& operator*() const { return value_.value(); }

  [[nodiscard]] const Error& error() const { return error_.value(); }

  [[nodiscard]] T value_or(T fallback) const {
    return has_value() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  std::optional<Error> error_;
};

/// Expected<void>: success, or an Error explaining why not.
template <>
class [[nodiscard]] Expected<void> {
 public:
  Expected() = default;
  Expected(Error error) : error_(std::move(error)) {}  // NOLINT(*-explicit-*)

  [[nodiscard]] bool has_value() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return has_value(); }

  [[nodiscard]] const Error& error() const { return error_.value(); }

 private:
  std::optional<Error> error_;
};

using Status = Expected<void>;

}  // namespace vmat
