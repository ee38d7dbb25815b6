#include "core/roofline.hh"

#include <algorithm>

#include "util/logging.hh"

namespace lll::core
{

Roofline::Roofline(const platforms::Platform &platform,
                   xmem::LatencyProfile profile)
    : platform_(platform), profile_(std::move(profile))
{
    lll_assert(!profile_.empty(), "roofline needs a latency profile");
}

double
Roofline::mshrCeilingGBs(unsigned mshrs, int cores_used) const
{
    lll_assert(mshrs > 0 && cores_used > 0, "bad MSHR ceiling query");
    // Fixed point of bw = cores * mshrs * cls / lat(bw); the right side
    // is decreasing in bw, so simple damped iteration converges fast.
    const double lines =
        static_cast<double>(mshrs) * cores_used * platform_.lineBytes;
    double bw = platform_.peakGBs * 0.5;
    for (int i = 0; i < 64; ++i) {
        double next = lines / profile_.latencyAt(bw);
        bw = 0.5 * (bw + next);
    }
    return std::min(bw, platform_.peakGBs);
}

double
Roofline::mshrCeilingGBs(MshrLevel level, int cores_used) const
{
    unsigned mshrs = level == MshrLevel::L1 ? platform_.l1Mshrs
                                            : platform_.l2Mshrs;
    return mshrCeilingGBs(mshrs, cores_used);
}

double
Roofline::attainableGFlops(double intensity, double bw_ceiling_gbs) const
{
    lll_assert(intensity > 0.0, "intensity must be positive");
    return std::min(platform_.peakGFlops, bw_ceiling_gbs * intensity);
}

double
Roofline::attainableGFlops(double intensity) const
{
    return attainableGFlops(intensity, platform_.peakGBs);
}

double
Roofline::ridgeIntensity() const
{
    return platform_.peakGFlops / platform_.peakGBs;
}

} // namespace lll::core
