#include "core/analyzer.hh"

#include <algorithm>
#include <cmath>

#include "core/littles_law.hh"
#include "util/logging.hh"

namespace lll::core
{

Analyzer::Analyzer(const platforms::Platform &platform,
                   xmem::LatencyProfile profile)
    : platform_(platform), profile_(std::move(profile))
{
    util::Status ok = validateInputs(platform_, profile_);
    lll_assert(ok.ok(), "%s", ok.toString().c_str());
}

util::Status
Analyzer::validateInputs(const platforms::Platform &platform,
                         const xmem::LatencyProfile &profile)
{
    using util::ErrorCode;
    using util::Status;
    if (profile.empty())
        return Status::error(ErrorCode::FailedPrecondition,
                             "analyzer needs a non-empty latency profile");
    if (profile.platformName() != platform.name) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "profile is for '%s' but platform is '%s'",
                             profile.platformName().c_str(),
                             platform.name.c_str());
    }
    return Status::okStatus();
}

util::Result<Analyzer>
Analyzer::create(const platforms::Platform &platform,
                 xmem::LatencyProfile profile)
{
    LLL_RETURN_IF_ERROR(validateInputs(platform, profile));
    return Analyzer(platform, std::move(profile));
}

Analysis
Analyzer::analyze(const counters::RoutineProfile &routine, int cores_used,
                  std::optional<bool> random_hint) const
{
    Analysis a;
    a.routine = routine.routine;
    a.platform = platform_.name;
    a.coresUsed = cores_used;

    a.bwGBs = routine.totalGBs;
    if (!std::isfinite(a.bwGBs) || a.bwGBs < 0.0) {
        a.warnings.push_back(detail::format(
            "routine '%s': bandwidth %g GB/s is not a usable measurement; "
            "treating as 0 (idle)", routine.routine.c_str(), a.bwGBs));
        a.bwGBs = 0.0;
    }
    a.pctPeak = a.bwGBs / platform_.peakGBs;

    // The core of the method: look the loaded latency up at the
    // *observed* bandwidth, then apply Little's law.  Outside the
    // measured sweep the profile clamps to the nearest measured point
    // instead of extrapolating; flag it so the degraded fidelity is
    // visible in reports and exports.
    xmem::LatencyProfile::Lookup lat = profile_.lookup(a.bwGBs);
    a.latencyNs = lat.latencyNs;
    a.bwBelowProfileRange = lat.belowMeasuredRange;
    a.bwAboveProfileRange = lat.aboveMeasuredRange;
    if (lat.belowMeasuredRange) {
        a.warnings.push_back(detail::format(
            "routine '%s': bandwidth %.2f GB/s is below the measured "
            "profile range (min %.2f GB/s); clamped extrapolation to the "
            "idle-most point", routine.routine.c_str(), a.bwGBs,
            profile_.minMeasuredGBs()));
    } else if (lat.aboveMeasuredRange) {
        a.warnings.push_back(detail::format(
            "routine '%s': bandwidth %.2f GB/s is above the measured "
            "profile range (max %.2f GB/s); clamped extrapolation to the "
            "saturation point", routine.routine.c_str(), a.bwGBs,
            profile_.maxMeasuredGBs()));
    }
    a.idleLatencyNs = profile_.idleLatencyNs();
    a.nAvg = mlpPerCore(a.bwGBs, a.latencyNs, platform_.lineBytes,
                        cores_used);

    a.demandFraction = routine.demandFraction;
    a.demandFractionKnown = routine.demandFractionKnown;

    bool random;
    if (random_hint.has_value()) {
        random = *random_hint;
    } else if (routine.demandFractionKnown) {
        random = routine.demandFraction > kRandomDemandFraction;
    } else {
        // No counter and no user knowledge: assume streaming, the common
        // case for HPC kernels (documented conservative default).
        random = false;
    }
    a.accessClass = random ? AccessClass::Random : AccessClass::Streaming;
    a.limitingLevel = random ? MshrLevel::L1 : MshrLevel::L2;
    a.limitingMshrs = random ? platform_.l1Mshrs : platform_.l2Mshrs;
    a.headroom = static_cast<double>(a.limitingMshrs) - a.nAvg;
    a.nearMshrLimit =
        a.nAvg >= kMshrFullFraction * a.limitingMshrs;

    a.maxAchievableGBs = profile_.maxMeasuredGBs();
    a.nearBandwidthLimit =
        a.bwGBs >= kBwWallFraction * a.maxAchievableGBs;

    for (const std::string &w : a.warnings)
        lll_warn("%s", w.c_str());

    if (registry_) {
        for (const std::string &w : a.warnings) {
            ++registry_->counter("input_warnings_total");
            registry_->annotate("analyzer.warning", w);
        }
        registry_->setGauge("analyzer.n_avg", a.nAvg);
        registry_->setGauge("analyzer.bw_gbps", a.bwGBs);
        registry_->setGauge("analyzer.pct_peak", a.pctPeak);
        registry_->setGauge("analyzer.latency_ns", a.latencyNs);
        registry_->setGauge("analyzer.limiting_mshrs", a.limitingMshrs);
        registry_->setGauge("analyzer.headroom", a.headroom);
        registry_->annotate("analyzer.limiter_level",
                            mshrLevelName(a.limitingLevel));
        registry_->annotate("analyzer.access_class",
                            accessClassName(a.accessClass));
        registry_->annotate("analyzer.routine", a.routine);
        ++registry_->counter("analyzer.analyses");
    }
    return a;
}

} // namespace lll::core
