#include <cstdio>
#include <string_view>

#include "obs/export.hh"
#include "util/json.hh"

namespace lll::obs
{

using util::JsonWriter;

std::string
exportJson(const MetricRegistry &registry, const SpanTracker *spans,
           const std::vector<JsonSection> &extra)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject(JsonWriter::Layout::Block).precision(9);

    w.key("counters").beginObject();
    for (const auto &[name, c] : registry.counters())
        w.member(name, c.value());
    w.end();

    w.key("gauges").beginObject();
    for (const auto &[name, g] : registry.gauges())
        w.member(name, g.read());
    w.end();

    w.key("histograms").beginObject();
    for (const auto &[name, h] : registry.histograms()) {
        w.key(name)
            .beginObject()
            .member("total", h.total())
            .member("mean", h.mean())
            .member("p50", h.percentile(0.50))
            .member("p90", h.percentile(0.90))
            .member("p99", h.percentile(0.99))
            .key("buckets")
            .beginArray();
        for (size_t k = 0; k < Log2Histogram::kBuckets; ++k) {
            if (!h.bucket(k))
                continue;
            w.beginArray()
                .value(Log2Histogram::bucketUpper(k))
                .value(h.bucket(k))
                .end();
        }
        w.end().end();
    }
    w.end();

    w.key("series").beginObject();
    for (const auto &[name, ts] : registry.allSeries()) {
        w.key(name)
            .beginObject()
            .member("total", ts.total())
            .key("samples")
            .beginArray();
        for (const TimeSeries::Sample &s : ts.samples())
            w.beginArray().value(ticksToNs(s.when)).value(s.value).end();
        w.end().end();
    }
    w.end();

    w.key("annotations").beginObject();
    for (const auto &[name, v] : registry.annotations())
        w.member(name, v);
    w.end();

    if (spans) {
        w.key("spans").beginArray();
        for (const SpanTracker::Stat &s : spans->stats()) {
            w.beginObject()
                .member("path", s.path)
                .member("depth", s.depth)
                .member("count", s.count)
                .member("wall_ns", s.wallNs)
                .end();
        }
        w.end();
    }

    for (const JsonSection &section : extra)
        w.key(section.first).raw(section.second);

    w.end();
    out += '\n';
    return out;
}

namespace
{

/** Embedded pre-serialized values keep their own layout but must not
 *  carry trailing newlines into the envelope. */
std::string_view
trimmedOrNull(std::string_view json)
{
    size_t end = json.size();
    while (end > 0 && (json[end - 1] == '\n' || json[end - 1] == ' ' ||
                       json[end - 1] == '\t' || json[end - 1] == '\r')) {
        --end;
    }
    return end == 0 ? std::string_view("null") : json.substr(0, end);
}

} // namespace

std::string
jsonEnvelope(const std::string &command, const util::Status &status,
             int exit_code, const std::string &data_json,
             const std::string &telemetry_json)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject(JsonWriter::Layout::Block)
        .member("schema_version", kJsonEnvelopeVersion)
        .member("command", command)
        .key("status")
        .beginObject()
        .member("code", util::errorCodeName(status.code()))
        .member("exit", exit_code)
        .member("message", status.message())
        .end()
        .key("data")
        .raw(trimmedOrNull(data_json))
        .key("telemetry")
        .raw(trimmedOrNull(telemetry_json))
        .end();
    out += '\n';
    return out;
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
