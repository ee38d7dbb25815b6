#include "obs/registry.hh"

namespace lll::obs
{

namespace
{

/** @p map's entry for @p name, default-constructed on first use; the
 *  name is copied only then. */
template <typename Map>
typename Map::mapped_type &
getOrCreate(Map &map, std::string_view name)
{
    auto it = map.find(name);
    if (it == map.end())
        it = map.emplace(std::string(name), typename Map::mapped_type())
                 .first;
    return it->second;
}

} // namespace

CounterMetric &
MetricRegistry::counter(std::string_view name)
{
    return getOrCreate(counters_, name);
}

GaugeMetric &
MetricRegistry::registerGauge(const std::string &name,
                              GaugeMetric::Reader reader, GaugeMode mode,
                              GaugeOptions options)
{
    GaugeMetric &g = gauges_[name];
    g = GaugeMetric(std::move(reader), mode, options.scale);
    g.setSampled(options.sampled);
    return g;
}

GaugeMetric &
MetricRegistry::setGauge(std::string_view name, double value)
{
    GaugeMetric &g = getOrCreate(gauges_, name);
    if (g.mode() == GaugeMode::Value)
        g.set(value);
    else
        g = [&] {
            GaugeMetric v;
            v.set(value);
            return v;
        }();
    return g;
}

void
MetricRegistry::freezeGauge(const std::string &name)
{
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        return;
    bool sampled = it->second.sampled();
    double last = it->second.read();
    GaugeMetric frozen;
    frozen.set(last);
    frozen.setSampled(sampled);
    it->second = frozen;
}

Log2Histogram &
MetricRegistry::histogram(std::string_view name)
{
    return getOrCreate(histograms_, name);
}

void
MetricRegistry::annotate(const std::string &name, const std::string &value)
{
    annotations_[name] = value;
}

void
MetricRegistry::sampleAll(Tick now)
{
    for (auto &[name, gauge] : gauges_) {
        gauge.advance(now);
        if (!gauge.sampled())
            continue;
        series_[name].push(now, gauge.read());
    }
    ++snapshots_;
}

const TimeSeries *
MetricRegistry::series(const std::string &name) const
{
    auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
}

void
MetricRegistry::mergeFrom(const MetricRegistry &other)
{
    for (const auto &[name, counter] : other.counters_)
        counters_[name].increment(counter.value());
    for (const auto &[name, gauge] : other.gauges_) {
        GaugeMetric &g = setGauge(name, gauge.read());
        g.setSampled(g.sampled() || gauge.sampled());
    }
    for (const auto &[name, hist] : other.histograms_)
        histograms_[name].merge(hist);
    for (const auto &[name, series] : other.series_) {
        TimeSeries &into = series_[name];
        for (const TimeSeries::Sample &s : series.samples())
            into.push(s.when, s.value);
    }
    for (const auto &[name, value] : other.annotations_)
        annotations_[name] = value;
    snapshots_ += other.snapshots_;
}

void
MetricRegistry::clear()
{
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    series_.clear();
    annotations_.clear();
    snapshots_ = 0;
}

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry instance;
    return instance;
}

} // namespace lll::obs
