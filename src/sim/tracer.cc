#include "sim/tracer.hh"

#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>

#include "util/json.hh"

namespace lll::sim
{

std::string
RequestTracer::toCsv() const
{
    std::ostringstream out;
    out << "when_ns,line_addr,type,core,latency_ns\n";
    char buf[128];
    for (const Event &ev : events()) {
        std::snprintf(buf, sizeof(buf), "%.3f,%llu,%s,%d,%.2f\n",
                      ticksToNs(ev.when),
                      static_cast<unsigned long long>(ev.lineAddr),
                      reqTypeName(ev.type), ev.core, ev.latencyNs);
        out << buf;
    }
    return out.str();
}

std::string
RequestTracer::toJson() const
{
    std::string out;
    util::JsonWriter w(out);
    w.beginObject()
        .precision(9)
        .member("total", total_)
        .key("events")
        .beginArray();
    for (const Event &ev : events()) {
        w.beginObject()
            .member("when_ns", ticksToNs(ev.when))
            .member("line_addr", ev.lineAddr)
            .member("type", reqTypeName(ev.type))
            .member("core", ev.core)
            .member("latency_ns", ev.latencyNs)
            .end();
    }
    w.end().end();
    return out;
}

double
RequestTracer::localityScore(unsigned window) const
{
    // A core interleaves several concurrent streams (plus prefetches),
    // so locality is judged against a short history of that core's
    // recent lines, not just the immediately preceding one.
    constexpr size_t history = 16;
    std::map<int, std::vector<uint64_t>> recent_by_core;
    uint64_t local = 0, scored = 0;
    for (const Event &ev : events()) {
        std::vector<uint64_t> &recent = recent_by_core[ev.core];
        if (!recent.empty()) {
            ++scored;
            for (uint64_t prev : recent) {
                int64_t delta = static_cast<int64_t>(ev.lineAddr) -
                                static_cast<int64_t>(prev);
                if (std::llabs(delta) <= static_cast<int64_t>(window)) {
                    ++local;
                    break;
                }
            }
        }
        recent.push_back(ev.lineAddr);
        if (recent.size() > history)
            recent.erase(recent.begin());
    }
    return scored ? static_cast<double>(local) /
                        static_cast<double>(scored)
                  : 0.0;
}

} // namespace lll::sim
