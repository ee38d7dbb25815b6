#include "obs/metric.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lll::obs
{

void
Log2Histogram::sample(double v)
{
    size_t idx = 0;
    if (v >= 1.0) {
        idx = static_cast<size_t>(std::ilogb(v)) + 1;
        idx = std::min(idx, kBuckets - 1);
    }
    ++counts_[idx];
    if (total_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++total_;
    sum_ += v;
}

double
Log2Histogram::bucketUpper(size_t k)
{
    return std::ldexp(1.0, static_cast<int>(k));
}

double
Log2Histogram::percentile(double frac) const
{
    if (total_ == 0)
        return 0.0;
    if (total_ == 1 || frac <= 0.0)
        return frac >= 1.0 ? max_ : min_;
    if (frac >= 1.0)
        return max_;

    // 1-based rank of the sample the percentile falls on.
    const uint64_t target = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::ceil(frac * static_cast<double>(total_))));
    uint64_t before = 0;
    for (size_t k = 0; k < kBuckets; ++k) {
        if (before + counts_[k] >= target && counts_[k]) {
            // Spread the bucket's samples evenly across [lower, upper)
            // and pick the target rank's midpoint position.
            const double lower = k == 0 ? 0.0 : bucketUpper(k - 1);
            const double upper = bucketUpper(k);
            const double pos =
                (static_cast<double>(target - before) - 0.5) /
                static_cast<double>(counts_[k]);
            const double v = lower + pos * (upper - lower);
            // The top bucket absorbs overflow up to 2^63; clamping to
            // the observed range keeps every answer a real value.
            return std::clamp(v, min_, max_);
        }
        before += counts_[k];
    }
    return max_;
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    if (other.total_ == 0)
        return;
    if (total_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (size_t k = 0; k < kBuckets; ++k)
        counts_[k] += other.counts_[k];
    total_ += other.total_;
    sum_ += other.sum_;
}

void
Log2Histogram::reset()
{
    counts_.fill(0);
    total_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

std::string
percentilesMs(const Log2Histogram &h)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f/%.2f/%.2f",
                  h.percentile(0.50) / 1e6, h.percentile(0.90) / 1e6,
                  h.percentile(0.99) / 1e6);
    return buf;
}

void
TimeSeries::push(Tick when, double value)
{
    Sample s{when, value};
    if (ring_.size() < capacity_) {
        ring_.push_back(s);
    } else {
        ring_[head_] = s;
        head_ = (head_ + 1) % capacity_;
    }
    ++total_;
}

std::vector<TimeSeries::Sample>
TimeSeries::samples() const
{
    std::vector<Sample> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

void
TimeSeries::clear()
{
    ring_.clear();
    head_ = 0;
    total_ = 0;
}

} // namespace lll::obs
