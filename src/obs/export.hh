/**
 * @file
 * Machine-readable exporters for the observability layer.
 *
 * exportJson() dumps a registry — counters, gauges, histograms, sampled
 * time series and annotations — plus optional span timings and caller-
 * provided extra sections (pre-serialized JSON, e.g. a RequestTracer
 * window) as one JSON object.  exportCsv() emits every time series in
 * long form (`metric,when_ns,value`), ready for pandas/gnuplot.
 */

#ifndef LLL_OBS_EXPORT_HH
#define LLL_OBS_EXPORT_HH

#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hh"
#include "obs/span.hh"
#include "util/status.hh"

namespace lll::obs
{

/** Raw JSON value to splice into the top-level export object. */
using JsonSection = std::pair<std::string, std::string>;

/** Version of the shared `--json` envelope emitted by jsonEnvelope(). */
constexpr int kJsonEnvelopeVersion = 1;

/**
 * Wrap a subcommand's machine-readable output in the one envelope
 * every `lll <cmd> --json` emits (README "JSON envelope"):
 *
 *   {"schema_version": 1, "command": "<cmd>",
 *    "status": {"code": "ok", "exit": 0, "message": ""},
 *    "data": <data_json>, "telemetry": <telemetry_json>}
 *
 * @p data_json and @p telemetry_json are pre-serialized JSON values;
 * an empty string becomes null.  @p exit_code is the process exit the
 * command is about to return with — it is part of the envelope so a
 * consumer never has to re-derive lint/serve exit semantics.
 */
std::string jsonEnvelope(const std::string &command,
                         const util::Status &status, int exit_code,
                         const std::string &data_json,
                         const std::string &telemetry_json = {});

/**
 * Serialize @p registry (and, when given, @p spans and @p extra
 * sections) as a JSON object.
 */
std::string exportJson(const MetricRegistry &registry,
                       const SpanTracker *spans = nullptr,
                       const std::vector<JsonSection> &extra = {});

/** Serialize every time series in @p registry as long-form CSV. */
std::string exportCsv(const MetricRegistry &registry);

/** Write @p content to @p path ("-" writes to stdout); true on success. */
bool writeExport(const std::string &path, const std::string &content);

} // namespace lll::obs

#endif // LLL_OBS_EXPORT_HH
