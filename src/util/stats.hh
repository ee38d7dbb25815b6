/**
 * @file
 * Statistics primitives used throughout the simulator.
 *
 * The key structure for this project is TimeWeightedStat: the paper's
 * n_avg is the *time-weighted* average occupancy of an MSHR queue, so the
 * simulator integrates occupancy over simulated time rather than averaging
 * samples.
 */

#ifndef LLL_UTIL_STATS_HH
#define LLL_UTIL_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace lll
{

/** Simulated time in picoseconds. */
using Tick = uint64_t;

/** Ticks per nanosecond; the global time base of the simulator. */
constexpr Tick ticksPerNs = 1000;

/** Convert nanoseconds (possibly fractional) to ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(ticksPerNs) + 0.5);
}

/** Convert ticks to nanoseconds. */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerNs);
}

/**
 * A simple monotonically increasing event count.
 */
class Counter
{
  public:
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(uint64_t n) { value_ += n; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/**
 * Sample-weighted mean/min/max accumulator.
 */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    uint64_t count() const { return count_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    double sum_ = 0.0;
    uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Integrates a piecewise-constant level over simulated time.
 *
 * Used for MSHR queue occupancy: the time-weighted mean over a measurement
 * window is exactly the paper's n_avg for that queue.
 */
class TimeWeightedStat
{
  public:
    /** Record that the level changes to @p level at time @p now. */
    void
    set(Tick now, double level)
    {
        lll_assert(now >= last_, "time ran backwards in TimeWeightedStat");
        area_ += current_ * static_cast<double>(now - last_);
        last_ = now;
        current_ = level;
        max_ = std::max(max_, level);
    }

    /** Adjust the level by @p delta at time @p now. */
    void add(Tick now, double delta) { set(now, current_ + delta); }

    /** Current level. */
    double current() const { return current_; }

    /** Highest level seen since reset. */
    double max() const { return max_; }

    /**
     * Time-weighted mean over [start, now].  Call after set()/add() have
     * recorded every change; integrates the trailing segment to @p now.
     */
    double
    mean(Tick start, Tick now) const
    {
        lll_assert(now >= last_, "bad window");
        if (now <= start)
            return current_;
        // The integral runs from the last reset; the caller resets at
        // window start, so 'start' is the reset point.
        return integral(now) / static_cast<double>(now - start);
    }

    /**
     * Level integrated over [last reset, now], trailing segment
     * included.  Integer levels and ticks keep this exact below 2^53.
     */
    double
    integral(Tick now) const
    {
        lll_assert(now >= last_, "bad window");
        return area_ + current_ * static_cast<double>(now - last_);
    }

    /** Restart integration at @p now, keeping the current level. */
    void
    reset(Tick now)
    {
        area_ = 0.0;
        last_ = now;
        max_ = current_;
    }

  private:
    double current_ = 0.0;
    double area_ = 0.0;
    Tick last_ = 0;
    double max_ = 0.0;
};

/**
 * Fixed-bucket histogram for latency distributions.
 */
class Histogram
{
  public:
    /** @param bucket_width width of each bucket; @param buckets count. */
    explicit Histogram(double bucket_width = 10.0, size_t buckets = 128)
        : width_(bucket_width), counts_(buckets, 0)
    {
    }

    void
    sample(double v)
    {
        size_t idx = v <= 0.0 ? 0 : static_cast<size_t>(v / width_);
        idx = std::min(idx, counts_.size() - 1);
        ++counts_[idx];
        ++total_;
        sum_ += v;
    }

    uint64_t total() const { return total_; }
    double mean() const
    {
        return total_ ? sum_ / static_cast<double>(total_) : 0.0;
    }

    /** Value below which @p frac of samples fall (bucket resolution). */
    double
    percentile(double frac) const
    {
        if (total_ == 0)
            return 0.0;
        uint64_t target =
            static_cast<uint64_t>(frac * static_cast<double>(total_));
        uint64_t seen = 0;
        for (size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= target)
                return (static_cast<double>(i) + 0.5) * width_;
        }
        return static_cast<double>(counts_.size()) * width_;
    }

    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        total_ = 0;
        sum_ = 0.0;
    }

  private:
    double width_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
    double sum_ = 0.0;
};

} // namespace lll

#endif // LLL_UTIL_STATS_HH
