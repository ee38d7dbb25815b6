#include "perf/bench_report.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.hh"

namespace lll::perf
{

using util::ErrorCode;
using util::JsonValue;
using util::Status;

namespace
{

util::Result<double>
numberField(const JsonValue &obj, const char *key)
{
    util::Result<double> v = obj.getNumber(key);
    if (!v.ok())
        return v.status().withContext("bench report");
    return v;
}

} // namespace

std::string
benchReportJson(const BenchReport &report)
{
    std::string out;
    util::JsonWriter w(out);
    w.beginObject(util::JsonWriter::Layout::Block)
        .member("schema_version", report.schemaVersion)
        .member("rev", report.rev)
        .member("trials", report.trials)
        .member("warmup_ms", report.warmupMs)
        .member("measure_ms", report.measureMs)
        .key("kernels")
        .beginArray(util::JsonWriter::Layout::Block);
    for (const KernelStats &k : report.kernels) {
        w.beginObject()
            .member("name", k.name)
            .member("trials", k.trials)
            .member("batches", k.batches)
            .member("items", k.items)
            .wrap()
            .key("events_per_sec")
            .beginObject()
            .member("median", k.medianEps)
            .member("min", k.minEps)
            .member("max", k.maxEps)
            .member("iqr", k.iqrEps)
            .key("trials")
            .beginArray();
        for (double eps : k.trialEventsPerSec)
            w.value(eps);
        w.end()
            .end()
            .wrap()
            .key("item_latency_ns")
            .beginObject()
            .member("p50", k.p50ItemNs)
            .member("p90", k.p90ItemNs)
            .member("p99", k.p99ItemNs)
            .end()
            .end();
    }
    w.end().end();
    return out;
}

util::Result<BenchReport>
parseBenchReport(const std::string &text)
{
    util::Result<JsonValue> doc = util::parseJson(text);
    if (!doc.ok())
        return doc.status().withContext("bench report");
    if (!doc->isObject()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "bench report must be a JSON object, "
                             "got %s", doc->typeName());
    }

    // A full `lll bench --json` envelope wraps the report in "data".
    const JsonValue *root = &*doc;
    if (!root->find("kernels")) {
        const JsonValue *data = root->find("data");
        if (data && data->isObject() && data->find("kernels"))
            root = data;
    }

    BenchReport report;
    util::Result<double> version = numberField(*root, "schema_version");
    if (!version.ok())
        return version.status();
    if (*version != kBenchSchemaVersion) {
        return Status::error(
            ErrorCode::InvalidArgument,
            "unsupported bench schema_version %g (this build speaks %d)",
            *version, kBenchSchemaVersion);
    }
    report.schemaVersion = static_cast<int>(*version);

    util::Result<std::string> rev = root->getStringOr("rev", "");
    if (!rev.ok())
        return rev.status();
    report.rev = rev.take();

    util::Result<double> trials = root->getNumberOr("trials", 0.0);
    if (!trials.ok())
        return trials.status();
    report.trials = static_cast<int>(*trials);
    util::Result<double> warmup = root->getNumberOr("warmup_ms", 0.0);
    if (!warmup.ok())
        return warmup.status();
    report.warmupMs = *warmup;
    util::Result<double> measure = root->getNumberOr("measure_ms", 0.0);
    if (!measure.ok())
        return measure.status();
    report.measureMs = *measure;

    const JsonValue *kernels_v = root->find("kernels");
    if (!kernels_v || !kernels_v->isArray()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "bench report needs a \"kernels\" array");
    }
    for (const JsonValue &kv : kernels_v->array) {
        if (!kv.isObject()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "bench kernel entries must be objects, "
                                 "got %s", kv.typeName());
        }
        KernelStats k;
        util::Result<std::string> name = kv.getString("name");
        if (!name.ok())
            return name.status().withContext("bench report");
        k.name = name.take();

        const JsonValue *eps = kv.find("events_per_sec");
        if (!eps || !eps->isObject()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "kernel \"%s\" needs an "
                                 "\"events_per_sec\" object",
                                 k.name.c_str());
        }
        util::Result<double> median = numberField(*eps, "median");
        if (!median.ok())
            return median.status();
        k.medianEps = *median;
        util::Result<double> mn = eps->getNumberOr("min", k.medianEps);
        if (!mn.ok())
            return mn.status();
        k.minEps = *mn;
        util::Result<double> mx = eps->getNumberOr("max", k.medianEps);
        if (!mx.ok())
            return mx.status();
        k.maxEps = *mx;
        util::Result<double> iqr = eps->getNumberOr("iqr", 0.0);
        if (!iqr.ok())
            return iqr.status();
        k.iqrEps = *iqr;
        const JsonValue *trial_list = eps->find("trials");
        if (trial_list && trial_list->isArray()) {
            for (const JsonValue &t : trial_list->array) {
                if (t.isNumber())
                    k.trialEventsPerSec.push_back(t.number);
            }
        }
        k.trials = static_cast<int>(k.trialEventsPerSec.size());

        const JsonValue *lat = kv.find("item_latency_ns");
        if (lat && lat->isObject()) {
            util::Result<double> p50 = lat->getNumberOr("p50", 0.0);
            util::Result<double> p90 = lat->getNumberOr("p90", 0.0);
            util::Result<double> p99 = lat->getNumberOr("p99", 0.0);
            if (!p50.ok())
                return p50.status();
            if (!p90.ok())
                return p90.status();
            if (!p99.ok())
                return p99.status();
            k.p50ItemNs = *p50;
            k.p90ItemNs = *p90;
            k.p99ItemNs = *p99;
        }
        report.kernels.push_back(std::move(k));
    }
    return report;
}

util::Result<BenchReport>
parseBenchReportFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return Status::error(ErrorCode::IoError, "cannot read '%s'",
                             path.c_str());
    }
    std::ostringstream text;
    text << in.rdbuf();
    util::Result<BenchReport> report = parseBenchReport(text.str());
    if (!report.ok())
        return report.status().withContext("%s", path.c_str());
    return report;
}

std::string
BenchComparison::render() const
{
    std::ostringstream out;
    for (const Row &r : rows) {
        char line[160];
        if (r.missing) {
            std::snprintf(line, sizeof(line),
                          "  %-12s MISSING from current run\n",
                          r.kernel.c_str());
        } else {
            std::snprintf(line, sizeof(line),
                          "  %-12s %12.3g -> %12.3g ev/s  (%+6.1f%%) %s\n",
                          r.kernel.c_str(), r.baselineEps, r.currentEps,
                          (r.ratio - 1.0) * 100.0,
                          r.regressed ? "REGRESSED" : "ok");
        }
        out << line;
    }
    char verdict[96];
    std::snprintf(verdict, sizeof(verdict),
                  "ratchet: %s (tolerance %.0f%%)\n",
                  ok() ? "ok" : "REGRESSION", tolerance * 100.0);
    out << verdict;
    return out.str();
}

BenchComparison
compareBenchReports(const BenchReport &baseline,
                    const BenchReport &current, double tolerance)
{
    BenchComparison cmp;
    cmp.tolerance = tolerance;
    for (const KernelStats &base : baseline.kernels) {
        BenchComparison::Row row;
        row.kernel = base.name;
        row.baselineEps = base.medianEps;
        const KernelStats *cur = nullptr;
        for (const KernelStats &k : current.kernels) {
            if (k.name == base.name) {
                cur = &k;
                break;
            }
        }
        if (!cur) {
            row.missing = true;
            row.regressed = true;
        } else {
            row.currentEps = cur->medianEps;
            row.ratio = base.medianEps > 0.0
                            ? cur->medianEps / base.medianEps
                            : 0.0;
            row.regressed =
                cur->medianEps < base.medianEps * (1.0 - tolerance);
        }
        cmp.rows.push_back(std::move(row));
    }
    return cmp;
}

} // namespace lll::perf
