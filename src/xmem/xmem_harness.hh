/**
 * @file
 * X-Mem-style loaded-latency characterization.
 *
 * Mirrors the measurement the paper performs once per processor with a
 * customized X-Mem [4]: sweep the injected memory load from near-idle to
 * saturation (by varying per-thread concurrency and inter-request delay)
 * and record, at each operating point, the achieved bandwidth and the
 * latency a memory request observes.  Runs against the simulated
 * platform; the resulting LatencyProfile is the per-processor input of
 * the paper's recipe.
 */

#ifndef LLL_XMEM_XMEM_HARNESS_HH
#define LLL_XMEM_XMEM_HARNESS_HH

#include <string>
#include <vector>

#include "platforms/platform.hh"
#include "xmem/latency_profile.hh"

namespace lll::xmem
{

/**
 * The load sweep.
 */
class XMemHarness
{
  public:
    struct Params
    {
        /** Simulated warmup/measure window per operating point (µs). */
        double warmupUs = 15.0;
        double measureUs = 40.0;

        /** Per-thread concurrency levels to sweep. */
        std::vector<unsigned> windows = {1, 2, 3, 4, 6, 8, 10, 12};

        /** Inter-request compute delays (cycles) to sweep at the highest
         *  window, to fill in low-bandwidth points. */
        std::vector<double> delays = {512, 128, 48, 16};

        uint64_t seed = 12345;
    };

    XMemHarness() : params_(Params()) {}
    explicit XMemHarness(Params params) : params_(std::move(params)) {}

    /**
     * Measure the bandwidth→latency profile of @p platform.
     *
     * Load generators issue uniform-random line accesses (so the hardware
     * prefetcher stays untrained and every access pays the full memory
     * path, like X-Mem's pointer chase).
     */
    LatencyProfile measure(const platforms::Platform &platform) const;

    /**
     * Load the profile from @p cache_path, measuring and saving it first
     * if the file does not exist (profiles are per-processor and only
     * ever computed once, as the paper prescribes).
     *
     * A cache file that exists but is corrupt is a CorruptData error —
     * it is never silently remeasured, because the same breakage could
     * hit the freshly saved file too and the user should know their
     * profile store is damaged.  A cached profile for a different
     * platform is remeasured with a warning (the legacy behaviour).
     * Served through ProfileStore::global(), so an unchanged file is
     * read once per process.
     */
    [[nodiscard]] util::Result<LatencyProfile>
    measureCachedChecked(const platforms::Platform &platform,
                         const std::string &cache_path) const;

  private:
    Params params_;
};

/** Default on-disk location for a platform's profile. */
std::string defaultProfilePath(const platforms::Platform &platform);

} // namespace lll::xmem

#endif // LLL_XMEM_XMEM_HARNESS_HH
