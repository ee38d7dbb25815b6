#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/export.hh"
#include "util/json.hh"

namespace lll::obs
{

using util::jsonEscape;

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

namespace
{

/** Emit `"key": ` */
void
key(std::ostringstream &out, const std::string &name)
{
    out << '"' << jsonEscape(name) << "\": ";
}

template <typename Map, typename Fn>
void
object(std::ostringstream &out, const Map &map, Fn &&value)
{
    out << '{';
    bool first = true;
    for (const auto &[name, entry] : map) {
        if (!first)
            out << ", ";
        first = false;
        key(out, name);
        value(entry);
    }
    out << '}';
}

} // namespace

std::string
exportJson(const MetricRegistry &registry, const SpanTracker *spans,
           const std::vector<JsonSection> &extra)
{
    std::ostringstream out;
    out << "{\n  ";

    key(out, "counters");
    object(out, registry.counters(),
           [&](const CounterMetric &c) { out << c.value(); });
    out << ",\n  ";

    key(out, "gauges");
    object(out, registry.gauges(),
           [&](const GaugeMetric &g) { out << jsonNumber(g.read()); });
    out << ",\n  ";

    key(out, "histograms");
    object(out, registry.histograms(), [&](const Log2Histogram &h) {
        out << "{\"total\": " << h.total()
            << ", \"mean\": " << jsonNumber(h.mean())
            << ", \"p50\": " << jsonNumber(h.percentile(0.50))
            << ", \"p90\": " << jsonNumber(h.percentile(0.90))
            << ", \"p99\": " << jsonNumber(h.percentile(0.99))
            << ", \"buckets\": [";
        bool first = true;
        for (size_t k = 0; k < Log2Histogram::kBuckets; ++k) {
            if (!h.bucket(k))
                continue;
            if (!first)
                out << ", ";
            first = false;
            out << "[" << jsonNumber(Log2Histogram::bucketUpper(k)) << ", "
                << h.bucket(k) << "]";
        }
        out << "]}";
    });
    out << ",\n  ";

    key(out, "series");
    object(out, registry.allSeries(), [&](const TimeSeries &ts) {
        out << "{\"total\": " << ts.total() << ", \"samples\": [";
        bool first = true;
        for (const TimeSeries::Sample &s : ts.samples()) {
            if (!first)
                out << ", ";
            first = false;
            out << "[" << jsonNumber(ticksToNs(s.when)) << ", "
                << jsonNumber(s.value) << "]";
        }
        out << "]}";
    });
    out << ",\n  ";

    key(out, "annotations");
    object(out, registry.annotations(), [&](const std::string &v) {
        out << '"' << jsonEscape(v) << '"';
    });

    if (spans) {
        out << ",\n  ";
        key(out, "spans");
        out << '[';
        bool first = true;
        for (const SpanTracker::Stat &s : spans->stats()) {
            if (!first)
                out << ", ";
            first = false;
            out << "{\"path\": \"" << jsonEscape(s.path)
                << "\", \"depth\": " << s.depth
                << ", \"count\": " << s.count
                << ", \"wall_ns\": " << jsonNumber(s.wallNs) << "}";
        }
        out << ']';
    }

    for (const JsonSection &section : extra) {
        out << ",\n  ";
        key(out, section.first);
        out << section.second;
    }

    out << "\n}\n";
    return out.str();
}

namespace
{

/** Embedded pre-serialized values keep their own layout but must not
 *  carry trailing newlines into the envelope. */
std::string
trimmedOrNull(const std::string &json)
{
    size_t end = json.size();
    while (end > 0 && (json[end - 1] == '\n' || json[end - 1] == ' ' ||
                       json[end - 1] == '\t' || json[end - 1] == '\r')) {
        --end;
    }
    return end == 0 ? std::string("null") : json.substr(0, end);
}

} // namespace

std::string
jsonEnvelope(const std::string &command, const util::Status &status,
             int exit_code, const std::string &data_json,
             const std::string &telemetry_json)
{
    std::ostringstream out;
    out << "{\n  \"schema_version\": " << kJsonEnvelopeVersion
        << ",\n  \"command\": \"" << jsonEscape(command)
        << "\",\n  \"status\": {\"code\": \""
        << util::errorCodeName(status.code())
        << "\", \"exit\": " << exit_code << ", \"message\": \""
        << jsonEscape(status.message()) << "\"},\n  \"data\": "
        << trimmedOrNull(data_json) << ",\n  \"telemetry\": "
        << trimmedOrNull(telemetry_json) << "\n}\n";
    return out.str();
}

bool
writeExport(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::fwrite(content.data(), 1, content.size(), stdout);
        return true;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    size_t written = std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    return written == content.size();
}

} // namespace lll::obs
