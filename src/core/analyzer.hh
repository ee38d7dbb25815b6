/**
 * @file
 * The performance analyzer: from a routine's measured bandwidth to its
 * observed MLP and the MSHR queue that limits it (paper §III-D, the
 * data-gathering half of Figure 1).
 *
 * Inputs are deliberately minimal and portable: the routine's bandwidth
 * (from memory-traffic counters every vendor exposes) and the
 * processor's bandwidth→latency profile (measured once with the X-Mem
 * harness).  Everything else is derived.
 */

#ifndef LLL_CORE_ANALYZER_HH
#define LLL_CORE_ANALYZER_HH

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "counters/counter_bank.hh"
#include "obs/registry.hh"
#include "platforms/platform.hh"
#include "util/fields.hh"
#include "util/status.hh"
#include "xmem/latency_profile.hh"

namespace lll::core
{

/** Dominant access behaviour of a routine. */
enum class AccessClass
{
    Random,      //!< prefetcher ineffective; L1 MSHRQ is the limiter
    Streaming,   //!< prefetcher effective; L2 MSHRQ is the limiter
};

constexpr const char *kAccessClassNames[] = {"random", "streaming"};

constexpr std::span<const char *const>
enumNames(AccessClass)
{
    return kAccessClassNames;
}

inline const char *
accessClassName(AccessClass c)
{
    return util::enumName(c);
}

/** Which MSHR queue bounds the routine's MLP. */
enum class MshrLevel
{
    L1,
    L2,
};

constexpr const char *kMshrLevelNames[] = {"L1", "L2"};

constexpr std::span<const char *const>
enumNames(MshrLevel)
{
    return kMshrLevelNames;
}

inline const char *
mshrLevelName(MshrLevel level)
{
    return util::enumName(level);
}

/**
 * Everything the recipe needs to know about one routine on one platform.
 */
struct Analysis
{
    std::string routine;
    std::string platform;

    double bwGBs = 0.0;
    double pctPeak = 0.0;           //!< of theoretical peak
    double latencyNs = 0.0;         //!< loaded latency at bwGBs (profile)
    double idleLatencyNs = 0.0;     //!< for contrast
    double nAvg = 0.0;              //!< observed MLP per core (Eq. 2)

    AccessClass accessClass = AccessClass::Streaming;
    MshrLevel limitingLevel = MshrLevel::L2;
    unsigned limitingMshrs = 0;     //!< size of the limiting queue
    double headroom = 0.0;          //!< limitingMshrs - nAvg

    bool nearMshrLimit = false;     //!< nAvg within margin of the size
    bool nearBandwidthLimit = false; //!< bw near peak achievable
    double maxAchievableGBs = 0.0;  //!< from the profile sweep

    double demandFraction = 1.0;
    bool demandFractionKnown = false;

    /** Concurrent access streams the routine drives (from the kernel
     *  spec when the analysis comes out of an Experiment stage); the
     *  recipe's fusion/distribution dual branches on it. */
    unsigned activeStreams = 0;
    bool activeStreamsKnown = false;

    int coresUsed = 0;

    /** Lookup left the measured profile range (latency was clamped to
     *  the nearest measured point rather than extrapolated). */
    bool bwBelowProfileRange = false;
    bool bwAboveProfileRange = false;

    /** Human-readable degradation notes ("clamped extrapolation", bad
     *  counter input...), also exported via the metric registry. */
    std::vector<std::string> warnings;
};

/** Tag of the Analysis entries a stage's "data" object carries
 *  (`lll analyze --json`, serve responses), in list order. */
constexpr unsigned kStageData = 1u << 0;

/** Analysis's field list (util/fields.hh). */
template <class V, util::RecordOf<Analysis> R>
void
visitFields(V &v, R &a)
{
    v("routine", a.routine);
    v("platform", a.platform);
    v("bw_gbs", a.bwGBs, {.tags = kStageData});
    v("pct_peak", a.pctPeak, {.tags = kStageData});
    v("latency_ns", a.latencyNs, {.tags = kStageData});
    v("idle_latency_ns", a.idleLatencyNs);
    v("n_avg", a.nAvg, {.tags = kStageData});
    v("access_class", a.accessClass, {.tags = kStageData});
    v("limiting_level", a.limitingLevel, {.tags = kStageData});
    v("limiting_mshrs", a.limitingMshrs, {.tags = kStageData});
    v("headroom", a.headroom, {.tags = kStageData});
    v("near_mshr_limit", a.nearMshrLimit);
    v("near_bandwidth_limit", a.nearBandwidthLimit);
    v("max_achievable_gbs", a.maxAchievableGBs, {.tags = kStageData});
    v("demand_fraction", a.demandFraction);
    v("demand_fraction_known", a.demandFractionKnown);
    v("active_streams", a.activeStreams);
    v("active_streams_known", a.activeStreamsKnown);
    v("cores_used", a.coresUsed, {.tags = kStageData});
    v("bw_below_profile_range", a.bwBelowProfileRange);
    v("bw_above_profile_range", a.bwAboveProfileRange);
    v("warnings", a.warnings, {.tags = kStageData});
}

/** nAvg >= kMshrFullFraction * queue size counts as "full". */
constexpr double kMshrFullFraction = 0.88;
/** bw >= kBwWallFraction * max achievable counts as the wall. */
constexpr double kBwWallFraction = 0.92;
/** Demand share above which a routine classifies as Random when no
 *  explicit hint is given. */
constexpr double kRandomDemandFraction = 0.6;

/**
 * Derives an Analysis from a routine profile.
 */
class Analyzer
{
  public:
    Analyzer(const platforms::Platform &platform,
             xmem::LatencyProfile profile);

    /**
     * Check that @p profile can drive an analysis of @p platform: it
     * must be non-empty and measured on the same platform.
     */
    [[nodiscard]] static util::Status validateInputs(const platforms::Platform &platform,
                                       const xmem::LatencyProfile &profile);

    /** Checked factory: validateInputs() then construct. */
    [[nodiscard]] static util::Result<Analyzer>
    create(const platforms::Platform &platform,
           xmem::LatencyProfile profile);

    /**
     * Analyze one routine.
     *
     * @param routine CrayPat-style per-routine bandwidth profile
     * @param cores_used cores that drove the load
     * @param random_hint user/a-priori knowledge of the access pattern
     *        (paper: "if the routine is dominated by random memory
     *        accesses"); falls back to the prefetch-fraction counter
     */
    Analysis analyze(const counters::RoutineProfile &routine,
                     int cores_used,
                     std::optional<bool> random_hint = std::nullopt) const;

    const xmem::LatencyProfile &profile() const { return profile_; }
    const platforms::Platform &platform() const { return platform_; }

    /**
     * Publish every subsequent analysis into @p registry (gauges
     * `analyzer.n_avg`, `analyzer.bw_gbps`, ... plus per-routine
     * annotations).  Pass nullptr to stop publishing.
     */
    void setRegistry(obs::MetricRegistry *registry)
    {
        registry_ = registry;
    }

  private:
    platforms::Platform platform_;
    xmem::LatencyProfile profile_;
    obs::MetricRegistry *registry_ = nullptr;
};

} // namespace lll::core

#endif // LLL_CORE_ANALYZER_HH
