/**
 * @file
 * Metric primitives for the observability layer: counters, gauges,
 * log2-bucketed histograms and bounded time-series rings.
 *
 * These deliberately know nothing about the simulator; they depend only
 * on util so every layer (sim, core, workloads, tools) can publish
 * metrics without dependency cycles.  The registry (registry.hh) owns
 * instances of these types keyed by dotted names such as
 * `sim.mshr.l1.0.occupancy`.
 */

#ifndef LLL_OBS_METRIC_HH
#define LLL_OBS_METRIC_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace lll::obs
{

/**
 * A monotonically increasing event count.
 */
class CounterMetric
{
  public:
    void increment(uint64_t n = 1) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/**
 * How a gauge obtains and publishes its value.
 */
enum class GaugeMode
{
    Value,      //!< last value set explicitly via set()
    Callback,   //!< evaluated on demand from a reader function
    Rate,       //!< d(reader)/dt computed at each sampler snapshot
};

/**
 * A point-in-time observation: either an explicitly set value, a
 * callback into the instrumented component, or a rate derived from a
 * cumulative callback by the sampler.
 */
class GaugeMetric
{
  public:
    using Reader = std::function<double()>;

    /** A Value-mode gauge. */
    GaugeMetric() = default;

    /** A Callback- or Rate-mode gauge; @p scale multiplies the result. */
    GaugeMetric(Reader reader, GaugeMode mode, double scale = 1.0)
        : reader_(std::move(reader)), mode_(mode), scale_(scale)
    {
    }

    GaugeMode mode() const { return mode_; }
    bool sampled() const { return sampled_; }
    void setSampled(bool s) { sampled_ = s; }

    void
    set(double v)
    {
        value_ = v;
    }

    /**
     * Current value.  For Rate gauges this is the rate computed at the
     * last snapshot (rates only advance when a sampler drives them).
     */
    double
    read() const
    {
        if (mode_ == GaugeMode::Callback)
            return reader_() * scale_;
        return value_;
    }

    /**
     * Advance a Rate gauge to @p now: the published value becomes the
     * change in the cumulative reader per nanosecond, times the scale.
     * A drop in the cumulative level (a stats reset between snapshots)
     * publishes zero for that interval instead of a negative rate.
     */
    void
    advance(Tick now)
    {
        if (mode_ != GaugeMode::Rate)
            return;
        double level = reader_();
        if (havePrev_ && now > prevTick_) {
            double dt_ns = ticksToNs(now - prevTick_);
            value_ = level >= prevLevel_
                         ? (level - prevLevel_) / dt_ns * scale_
                         : 0.0;
        }
        prevLevel_ = level;
        prevTick_ = now;
        havePrev_ = true;
    }

  private:
    Reader reader_;
    GaugeMode mode_ = GaugeMode::Value;
    double scale_ = 1.0;
    double value_ = 0.0;
    bool sampled_ = false;

    double prevLevel_ = 0.0;
    Tick prevTick_ = 0;
    bool havePrev_ = false;
};

/**
 * Histogram with power-of-two bucket boundaries: bucket k counts samples
 * in [2^(k-1), 2^k), bucket 0 counts samples below 1.  Constant size, so
 * it absorbs any latency/occupancy range without configuration.
 */
class Log2Histogram
{
  public:
    static constexpr size_t kBuckets = 64;

    void sample(double v);

    uint64_t total() const { return total_; }
    double mean() const
    {
        return total_ ? sum_ / static_cast<double>(total_) : 0.0;
    }
    /** Smallest sample recorded (0.0 while empty). */
    double min() const { return total_ ? min_ : 0.0; }
    /** Largest sample recorded (0.0 while empty). */
    double max() const { return total_ ? max_ : 0.0; }
    uint64_t bucket(size_t k) const { return counts_.at(k); }

    /** Upper bound of bucket @p k (lower bound of k+1). */
    static double bucketUpper(size_t k);

    /**
     * Value below which @p frac of the samples fall.
     *
     * Defined for every histogram state — no division by zero, no UB:
     *  - empty histogram: 0.0;
     *  - a single sample (or frac <= 0 / frac >= 1): the exact
     *    recorded min/max, not a bucket boundary;
     *  - otherwise: the target rank's bucket is located and the value
     *    linearly interpolated across it, then clamped to the observed
     *    [min, max] — so the overflow top bucket (which spans to
     *    2^63) can never report past the largest real sample.
     *
     * Error bound: the result lies inside the target sample's bucket
     * [2^(k-1), 2^k), so the absolute error is below the bucket width
     * 2^(k-1) and the relative error below 2x (one log2 bucket); the
     * min/max clamp makes the 0th/100th percentiles exact.
     */
    double percentile(double frac) const;

    /** Add @p other's samples into this histogram bucket-wise. */
    void merge(const Log2Histogram &other);

    void reset();

  private:
    std::array<uint64_t, kBuckets> counts_{};
    uint64_t total_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** p50/p90/p99 of @p h (nanosecond samples) as "a/b/c" in ms, two
 *  decimals each — the one spelling of every latency stat line. */
std::string percentilesMs(const Log2Histogram &h);

/** Ring capacity of each sampled gauge's time series. */
constexpr size_t kSeriesCapacity = 4096;

/**
 * Bounded ring of (tick, value) samples; the sampler pushes one entry
 * per snapshot and the oldest entries fall off once capacity is hit, so
 * long runs keep the most recent trajectory at fixed memory cost.
 */
class TimeSeries
{
  public:
    struct Sample
    {
        Tick when = 0;
        double value = 0.0;
    };

    explicit TimeSeries(size_t capacity = kSeriesCapacity)
        : capacity_(capacity)
    {
        ring_.reserve(capacity_);
    }

    void push(Tick when, double value);

    /** Retained samples, oldest first. */
    std::vector<Sample> samples() const;

    /** Samples currently retained. */
    size_t size() const { return ring_.size(); }

    /** Samples pushed since construction (including evicted ones). */
    uint64_t total() const { return total_; }

    void clear();

  private:
    size_t capacity_;
    std::vector<Sample> ring_;
    size_t head_ = 0;
    uint64_t total_ = 0;
};

} // namespace lll::obs

#endif // LLL_OBS_METRIC_HH
