/**
 * @file
 * The process-wide metric registry: counters, gauges and histograms
 * registered by dotted name (`sim.mshr.l1.0.occupancy`,
 * `sim.memctrl.bw_gbps`, `analyzer.n_avg`, ...), plus the bounded
 * time-series rings the sampler snapshots gauges into.
 *
 * Components publish through three channels:
 *  - counter(name)++                    for event counts;
 *  - registerGauge(name, reader, ...)   for live component state (the
 *    reader is invoked at sample/export time);
 *  - setGauge(name, v)                  for one-shot derived values such
 *    as the analyzer's n_avg.
 *
 * Callback gauges hold a pointer into the instrumented component, so a
 * component that dies before the registry must freezeGauge() its names
 * first (System does this in its destructor): the gauge keeps its last
 * value and the time series stays exportable.
 */

#ifndef LLL_OBS_REGISTRY_HH
#define LLL_OBS_REGISTRY_HH

#include <map>
#include <string>
#include <string_view>

#include "obs/metric.hh"
#include "util/names.hh"

namespace lll::obs
{

/**
 * Counter accumulating the observability layer's own host-time cost in
 * nanoseconds: every sampler snapshot and profiler tree build adds its
 * wall time here, so each `--json` telemetry block prices the
 * measurement itself.  Wall-clock valued, hence nondeterministic —
 * determinism comparisons must exclude it (like span wall times).
 */
inline constexpr const char *kSelfOverheadCounter =
    util::names::kObsSelfOverheadNs;

struct GaugeOptions
{
    /** Snapshot this gauge into a time-series ring on every
     *  sampler tick. */
    bool sampled = false;
    /** Multiplier applied to the reader's result (Callback) or to
     *  the per-nanosecond rate (Rate). */
    double scale = 1.0;
};

/**
 * Name → metric store.  Deterministically ordered (std::map) so exports
 * are diffable run to run.
 */
class MetricRegistry
{
  public:
    using GaugeOptions = obs::GaugeOptions;

    /** Get or create a counter.  Lookups by name never allocate; only
     *  a metric's first use copies its name. */
    CounterMetric &counter(std::string_view name);

    /**
     * Register (or replace) a live gauge.  @p mode Rate derives a
     * per-nanosecond rate of the cumulative @p reader at each sampler
     * snapshot; Callback republishes the reader's value directly.
     */
    GaugeMetric &registerGauge(const std::string &name,
                               GaugeMetric::Reader reader, GaugeMode mode,
                               GaugeOptions options = GaugeOptions());

    /** Set a Value-mode gauge (get-or-create). */
    GaugeMetric &setGauge(std::string_view name, double value);

    /**
     * Drop a gauge's reader, keeping its last value — call before the
     * component the reader points into is destroyed.
     */
    void freezeGauge(const std::string &name);

    /** Get or create a histogram. */
    Log2Histogram &histogram(std::string_view name);

    /** Attach a free-form string to a metric name (exported as-is). */
    void annotate(const std::string &name, const std::string &value);

    /**
     * One sampler tick: advance every Rate gauge to @p now and push
     * every sampled gauge's current value into its time series.
     */
    void sampleAll(Tick now);

    /** The ring behind a sampled gauge, or nullptr before first sample. */
    const TimeSeries *series(const std::string &name) const;

    /** Snapshots taken via sampleAll() since construction/clear. */
    uint64_t snapshots() const { return snapshots_; }

    // Bulk access for exporters.
    const std::map<std::string, CounterMetric, std::less<>> &
    counters() const
    {
        return counters_;
    }
    const std::map<std::string, GaugeMetric, std::less<>> &gauges() const
    {
        return gauges_;
    }
    const std::map<std::string, Log2Histogram, std::less<>> &
    histograms() const
    {
        return histograms_;
    }
    const std::map<std::string, TimeSeries> &allSeries() const
    {
        return series_;
    }
    const std::map<std::string, std::string> &annotations() const
    {
        return annotations_;
    }

    /**
     * Fold @p other into this registry — the sweep runner's
     * merge-after-join contract (DESIGN.md §11): counters add, gauges
     * take the other's current value (worker gauges are frozen by the
     * time a task completes, so read() is safe), histograms add
     * bucket-wise, time-series samples append in push order, and
     * annotations overwrite.  Call on the main thread, once per task,
     * in deterministic task order.
     */
    void mergeFrom(const MetricRegistry &other);

    /** Drop every metric, series and annotation. */
    void clear();

    /** The process-wide registry. */
    static MetricRegistry &global();

  private:
    std::map<std::string, CounterMetric, std::less<>> counters_;
    std::map<std::string, GaugeMetric, std::less<>> gauges_;
    std::map<std::string, Log2Histogram, std::less<>> histograms_;
    std::map<std::string, TimeSeries> series_;
    std::map<std::string, std::string> annotations_;
    uint64_t snapshots_ = 0;
};

} // namespace lll::obs

#endif // LLL_OBS_REGISTRY_HH
