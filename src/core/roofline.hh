/**
 * @file
 * Roofline model with the paper's extra MSHR-imposed ceiling (Fig. 2).
 *
 * Beyond the classic min(peak FLOPs, BW * intensity) envelope, the paper
 * adds a bandwidth ceiling implied by a bounded MSHR queue: with at most
 * n_max misses in flight per core, achievable bandwidth cannot exceed
 *
 *     BW_mshr = cores * n_max * cls / lat(BW_mshr)
 *
 * a fixed point because the loaded latency itself rises with bandwidth.
 * For ISx on KNL this L1-MSHR ceiling (~256 GB/s) explains why the code
 * stalls far below the 400 GB/s roof and why prefetch-to-L2 — which
 * moves n_max from 12 to 32 — breaks through.
 */

#ifndef LLL_CORE_ROOFLINE_HH
#define LLL_CORE_ROOFLINE_HH

#include "core/analyzer.hh"
#include "platforms/platform.hh"
#include "xmem/latency_profile.hh"

namespace lll::core
{

/**
 * Roofline calculator for one platform.
 */
class Roofline
{
  public:
    Roofline(const platforms::Platform &platform,
             xmem::LatencyProfile profile);

    double peakGFlops() const { return platform_.peakGFlops; }
    double peakGBs() const { return platform_.peakGBs; }

    /**
     * Bandwidth ceiling imposed by @p mshrs outstanding lines per core
     * (solves the loaded-latency fixed point).
     */
    double mshrCeilingGBs(unsigned mshrs, int cores_used) const;

    /** Convenience: ceiling of the given MSHR level's queue. */
    double mshrCeilingGBs(MshrLevel level, int cores_used) const;

    /**
     * Attainable GFlop/s at @p intensity (flops/byte) under the classic
     * roofline, optionally capped by an MSHR ceiling.
     */
    double attainableGFlops(double intensity, double bw_ceiling_gbs) const;
    double attainableGFlops(double intensity) const;

    /** Machine balance: intensity where bandwidth meets peak FLOPs. */
    double ridgeIntensity() const;

  private:
    platforms::Platform platform_;
    xmem::LatencyProfile profile_;
};

} // namespace lll::core

#endif // LLL_CORE_ROOFLINE_HH
