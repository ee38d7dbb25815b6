/**
 * @file
 * Structured error types for the user-facing library surface.
 *
 * The library distinguishes three failure regimes (see DESIGN.md §9):
 *
 *  - recoverable, user-caused errors (corrupt input files, unknown
 *    names, inconsistent configurations) travel as Status / Result<T>
 *    return values so callers — above all the `lll` CLI — can report
 *    them and exit with a meaningful code instead of aborting;
 *  - the pre-validated legacy wrappers Platform::sysParams and the
 *    benchmark-only System::run die on bad input;
 *  - lll_panic()/lll_assert() stay reserved for violated *internal*
 *    invariants — bugs in LLL itself, never reachable from bad input.
 *
 * A Status carries an ErrorCode plus a context chain built up with
 * withContext() as the error propagates ("while loading 'x.profile':
 * line 7: malformed point").
 */

#ifndef LLL_UTIL_STATUS_HH
#define LLL_UTIL_STATUS_HH

#include <optional>
#include <string>
#include <utility>

#include "util/logging.hh"

namespace lll::util
{

/** Coarse error taxonomy; each code maps to a CLI exit code. */
enum class ErrorCode
{
    Ok = 0,
    InvalidArgument,    //!< malformed user request (usage error)
    NotFound,           //!< named entity / file does not exist
    CorruptData,        //!< input exists but cannot be parsed
    FailedPrecondition, //!< configuration is internally inconsistent
    OutOfRange,         //!< value outside the supported domain
    IoError,            //!< file could not be read/written
    DeadlineExceeded,   //!< forward-progress watchdog tripped
    Internal,           //!< library bug surfaced as an error
    Unavailable,        //!< transient overload — retry later
};

/** Stable lower-case name ("corrupt-data", ...). */
const char *errorCodeName(ErrorCode code);

/**
 * Process exit code for a failure of @p code, following the CLI
 * convention documented in README "Robustness": 2 usage error, 3 bad
 * input data, 4 simulation failure, 1 anything else.
 */
int exitCodeFor(ErrorCode code);

/**
 * An error code plus a human-readable message with context chain.
 * A default-constructed Status is OK.
 */
class Status
{
  public:
    Status() = default;

    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    [[nodiscard]] static Status okStatus() { return Status(); }

    /** printf-style constructor for error statuses. */
    [[nodiscard]] static Status error(ErrorCode code, const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    bool ok() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /**
     * Prepend a context frame: `status.withContext("loading '%s'", p)`
     * turns "malformed point" into "loading 'x': malformed point".
     * No-op on an OK status.
     */
    [[nodiscard]] Status withContext(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

    /** "corrupt-data: loading 'x': malformed point" (or "ok"). */
    std::string toString() const;

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * Either a value or an error Status (a minimal absl::StatusOr).
 *
 * Construction from T is implicit so `return LatencyProfile(...)`
 * works; construction from a non-OK Status is implicit so
 * `return Status::error(...)` propagates.  Constructing a Result from
 * an OK Status is a bug (panics).
 */
template <typename T>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}

    Result(Status status) : status_(std::move(status))
    {
        lll_assert(!status_.ok(),
                   "Result constructed from OK status without a value");
    }

    bool ok() const { return value_.has_value(); }
    const Status &status() const { return status_; }

    T &value()
    {
        lll_assert(ok(), "Result::value() on error: %s",
                   status_.toString().c_str());
        return *value_;
    }

    const T &value() const
    {
        lll_assert(ok(), "Result::value() on error: %s",
                   status_.toString().c_str());
        return *value_;
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

    /** Move the value out (for non-copyable payloads). */
    T take()
    {
        lll_assert(ok(), "Result::take() on error: %s",
                   status_.toString().c_str());
        return std::move(*value_);
    }

    /** The value, or @p fallback when this Result holds an error. */
    T valueOr(T fallback) const { return ok() ? *value_ : fallback; }

  private:
    Status status_;
    std::optional<T> value_;
};

} // namespace lll::util

/** Propagate a non-OK Status out of a Status/Result-returning function. */
#define LLL_RETURN_IF_ERROR(expr)                                           \
    do {                                                                    \
        ::lll::util::Status lll_status_ = (expr);                           \
        if (!lll_status_.ok())                                              \
            return lll_status_;                                             \
    } while (0)

#endif // LLL_UTIL_STATUS_HH
