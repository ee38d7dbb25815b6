/**
 * @file
 * Status and error reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal invariant of the library was violated (a bug in
 *            LLL itself).  Aborts so a debugger or core dump can be used.
 * fatal()  — the simulation cannot continue because of a user error (bad
 *            configuration, invalid arguments).  Exits with status 1.
 * warn()   — something works well enough but might surprise the user.
 * inform() — normal operating messages.
 */

#ifndef LLL_UTIL_LOGGING_HH
#define LLL_UTIL_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace lll
{

/** Severity of a log message. */
enum class LogLevel
{
    Panic,
    Fatal,
    Warn,
    Inform,
};

namespace detail
{

/** Format a printf-style message into a std::string. */
std::string vformat(const char *fmt, va_list ap);

/** Emit a message and, for Panic/Fatal, terminate the process. */
[[noreturn]] void terminate(LogLevel level, const std::string &msg,
                            const char *file, int line);

/** Emit a non-fatal message. */
void emit(LogLevel level, const std::string &msg);

std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/**
 * Hook allowing tests to capture warn()/inform() output.  Returns the
 * previously installed sink.  Pass nullptr to restore stderr output.
 */
using LogSink = void (*)(LogLevel, const std::string &);
LogSink setLogSink(LogSink sink);

/** Number of warnings emitted since process start (test aid). */
unsigned long warnCount();

} // namespace lll

#define lll_panic(...)                                                      \
    ::lll::detail::terminate(::lll::LogLevel::Panic,                        \
                             ::lll::detail::format(__VA_ARGS__),            \
                             __FILE__, __LINE__)

#define lll_fatal(...)                                                      \
    ::lll::detail::terminate(::lll::LogLevel::Fatal,                        \
                             ::lll::detail::format(__VA_ARGS__),            \
                             __FILE__, __LINE__)

#define lll_warn(...)                                                       \
    ::lll::detail::emit(::lll::LogLevel::Warn,                              \
                        ::lll::detail::format(__VA_ARGS__))

#define lll_inform(...)                                                     \
    ::lll::detail::emit(::lll::LogLevel::Inform,                            \
                        ::lll::detail::format(__VA_ARGS__))

/** Panic when an internal invariant fails. */
#define lll_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            lll_panic("assertion '%s' failed: %s", #cond,                   \
                      ::lll::detail::format(__VA_ARGS__).c_str());          \
        }                                                                   \
    } while (0)

/**
 * Expensive runtime invariant checks on simulator hot paths (MSHR
 * occupancy vs capacity, event-queue tick monotonicity, request
 * conservation).  Compiled in only with -DLLL_INVARIANTS=ON; the
 * invariants-ON CI job keeps them honest.  Violation is always a
 * library bug, so failures panic.
 */
#ifdef LLL_INVARIANTS_ENABLED
#define LLL_INVARIANT(cond, ...) lll_assert(cond, __VA_ARGS__)
#else
#define LLL_INVARIANT(cond, ...)                                            \
    do {                                                                    \
    } while (0)
#endif

#endif // LLL_UTIL_LOGGING_HH
