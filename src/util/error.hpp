// Error-handling primitives shared across all FLARE modules.
//
// We follow the C++ Core Guidelines (E.2/E.3): errors that a caller could not
// have prevented are reported via exceptions; precondition violations inside
// the library throw `std::invalid_argument` through `ensure()` so that callers
// get an actionable message instead of UB.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace flare {

/// Base class for all errors raised by the FLARE library.
class FlareError : public std::runtime_error {
 public:
  explicit FlareError(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when an input file / trace cannot be parsed.
class ParseError : public FlareError {
 public:
  explicit ParseError(const std::string& what) : FlareError(what) {}
};

/// Raised when a metric schema names a column its producer cannot fill (the
/// counter synthesizer, or a derived column without its source metric).
class SchemaError : public FlareError {
 public:
  explicit SchemaError(const std::string& what) : FlareError(what) {}
};

/// Raised when a numerical routine fails to converge or is ill-conditioned.
class NumericalError : public FlareError {
 public:
  explicit NumericalError(const std::string& what) : FlareError(what) {}
};

/// Raised when the datacenter simulator is asked to do something impossible
/// (e.g. schedule onto a saturated machine with overcommit disabled).
class CapacityError : public FlareError {
 public:
  explicit CapacityError(const std::string& what) : FlareError(what) {}
};

/// Raised when measured data is unusable — non-finite or out-of-range counter
/// readings reaching a stage that requires clean input (the fault-tolerant
/// profiling path validates and imputes before any such stage; seeing this
/// error means a producer bypassed it).
class FaultError : public FlareError {
 public:
  explicit FaultError(const std::string& what) : FlareError(what) {}
};

/// Raised when quarantine leaves too little healthy data to work with (e.g.
/// every profiled row fell below the sample quorum).
class QuarantineError : public FlareError {
 public:
  explicit QuarantineError(const std::string& what) : FlareError(what) {}
};

/// Raised when the replay plane cannot produce a trustworthy estimate — a
/// representative (or a whole cluster) stays unreplayable after retries and
/// fallbacks, or the quarantined observation-weight mass crosses the
/// configured escalation threshold. Failing loudly beats returning a hollow
/// datacenter-wide number.
class ReplayError : public FlareError {
 public:
  explicit ReplayError(const std::string& what) : FlareError(what) {}
};

/// Raised when a write-ahead append journal cannot be written durably, is
/// already pending on a target, or recovery cannot roll a torn append back.
class JournalError : public FlareError {
 public:
  explicit JournalError(const std::string& what) : FlareError(what) {}
};

/// Raised by the service plane (`flare serve` / `flare client`): socket
/// setup or framing failures, malformed protocol frames, a peer that
/// answered with a terminal non-ok outcome, or daemon state that cannot be
/// recovered.
class ServeError : public FlareError {
 public:
  explicit ServeError(const std::string& what) : FlareError(what) {}
};

/// Throws `std::invalid_argument` with `message` when `condition` is false.
/// Used to validate preconditions at public API boundaries.
void ensure(bool condition, std::string_view message);

/// Throws `NumericalError` with `message` when `condition` is false.
void ensure_numeric(bool condition, std::string_view message);

}  // namespace flare
