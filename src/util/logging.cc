#include "util/logging.hh"

#include <atomic>
#include <cstdio>

namespace lll
{

namespace
{

std::atomic<LogSink> g_sink{nullptr};
std::atomic<unsigned long> g_warn_count{0};

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Panic:  return "panic";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Warn:   return "warn";
      case LogLevel::Inform: return "info";
    }
    return "?";
}

} // namespace

LogSink
setLogSink(LogSink sink)
{
    return g_sink.exchange(sink);
}

unsigned long
warnCount()
{
    return g_warn_count.load();
}

namespace detail
{

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string(fmt);
    std::string out(static_cast<size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

void
emit(LogLevel level, const std::string &msg)
{
    if (level == LogLevel::Warn)
        g_warn_count.fetch_add(1);
    if (LogSink sink = g_sink.load()) {
        sink(level, msg);
        return;
    }
    std::fprintf(stderr, "%s: %s\n", levelName(level), msg.c_str());
}

void
terminate(LogLevel level, const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "%s: %s\n  at %s:%d\n", levelName(level),
                 msg.c_str(), file, line);
    if (level == LogLevel::Panic)
        std::abort();
    std::exit(1);
}

} // namespace detail

} // namespace lll
