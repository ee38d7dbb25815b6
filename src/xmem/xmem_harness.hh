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

#include <array>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "platforms/platform.hh"
#include "sim/system.hh"
#include "xmem/latency_profile.hh"

namespace lll::xmem
{

/** One load level of the sweep. */
struct OperatingPoint
{
    unsigned window;    //!< per-thread requests in flight
    double delayCycles; //!< compute gap between requests
    bool streaming;     //!< sequential streams, else random accesses

    bool operator==(const OperatingPoint &) const = default;
};

/**
 * The operating points measured so far, for reuse by later
 * characterizations (DESIGN.md §17.6).  An MSHR queue's capacity
 * changes a run only through its full() check and the prefetch
 * reserve check, so a run whose queue at some level never came within
 * prefetchReserve of its capacity is the run any such capacity
 * produces, event for event.  XMemHarness::measure() reuses a stored
 * point when everything else matches: the SystemParams bar their MSHR
 * capacities, the point, and the harness seed and windows.  At each
 * level whose capacity differs, the stored run's whole-run peak plus
 * that level's prefetchReserve must stay below both capacities.
 * Every other point is simulated.
 *
 * Thread-safe.  Each search::Searcher::run() owns one, so nothing is
 * kept between searches.
 */
class PointMemo
{
  public:
    /** One operating point measure() asked for. */
    struct Use
    {
        std::string platform;
        size_t point = 0;       //!< index in the sweep
        bool reused = false;    //!< served from an earlier run
        /** Whole-run peak MSHR occupancy of the run that produced the
         *  point, at L1, L2 and L3 (the highest over cores). */
        std::array<unsigned, 3> peak{};
    };

    /** Every point asked for so far, completion order (which varies
     *  with jobs). */
    std::vector<Use> uses() const;

  private:
    friend class XMemHarness;

    /** What a point's run depends on, bar MSHR capacities. */
    struct Key
    {
        sim::SystemParams sys; //!< every MSHR capacity set to 0
        OperatingPoint op;
        unsigned lineBytes;    //!< the platform's, which sizes the load
        double warmupUs;
        double measureUs;

        bool operator==(const Key &) const = default;
    };

    struct Entry
    {
        Key key;
        std::array<unsigned, 3> capacity; //!< MSHRs it ran with
        std::array<unsigned, 3> peak;
        LatencyProfile::Point point;
    };

    /** A stored point valid at @p capacity, recorded as a reuse by
     *  @p platform's point @p index. */
    std::optional<LatencyProfile::Point>
    find(const Key &key, const std::array<unsigned, 3> &capacity,
         const std::string &platform, size_t index);

    /** Store a simulated point, recorded as a use. */
    void add(Entry entry, const std::string &platform, size_t index);

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
    std::vector<Use> uses_;
};

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

        /** Inter-request compute delays (cycles) swept with random
         *  accesses at window 2, to fill in low-bandwidth points. */
        std::vector<double> delays = {512, 128, 48, 16};

        uint64_t seed = 12345;

        /** Threads that run the operating points, the caller included
         *  (obs::Executor); 1 runs them all on the caller.  The profile
         *  is identical for every value. */
        int jobs = 1;
    };

    XMemHarness() : params_(Params()) {}

    /** A harness that reuses and adds to @p memo's points, when set;
     *  the profile is the same either way. */
    explicit XMemHarness(Params params, PointMemo *memo = nullptr)
        : params_(std::move(params)), memo_(memo)
    {
    }

    /**
     * Measure the bandwidth→latency profile of @p platform.
     *
     * Each operating point is an independent System run from the same
     * seed.  The low-load points issue uniform-random line accesses (the
     * hardware prefetcher stays untrained and every access pays the full
     * memory path, like X-Mem's pointer chase); the high-load points
     * (12 of the default 24) are sequential streams that train the
     * prefetcher, like X-Mem's bandwidth threads.  The points fan out
     * over Params::jobs workers; point i is always the profile's i-th,
     * so the profile does not depend on jobs.  A point whose run fails
     * (the watchdog trips, say) fails the whole profile with that
     * run's status; the first such point in sweep order decides.
     */
    [[nodiscard]] util::Result<LatencyProfile>
    measure(const platforms::Platform &platform) const;

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
    PointMemo *memo_ = nullptr;
};

/** Default on-disk location for a platform's profile. */
std::string defaultProfilePath(const platforms::Platform &platform);

} // namespace lll::xmem

#endif // LLL_XMEM_XMEM_HARNESS_HH
