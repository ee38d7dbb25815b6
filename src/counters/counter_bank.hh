/**
 * @file
 * A vendor-filtered view of one measurement window's counters.
 *
 * The bank is constructed from a RunResult (the simulator's ground truth)
 * but read through the vendor visibility matrix: a request for an event
 * the vendor does not expose returns std::nullopt, exactly like a PMU
 * programming failure on real hardware.  The analyzer layer restricts
 * itself to the portable events, which every vendor exposes.
 */

#ifndef LLL_COUNTERS_COUNTER_BANK_HH
#define LLL_COUNTERS_COUNTER_BANK_HH

#include <array>
#include <cstdint>
#include <optional>

#include "counters/event_kind.hh"
#include "counters/vendor_matrix.hh"
#include "platforms/platform.hh"
#include "sim/system.hh"
#include "util/fields.hh"

namespace lll::counters
{

/**
 * Counter values for one routine's measurement window.
 */
class CounterBank
{
  public:
    /**
     * Snapshot the window described by @p run on a platform of vendor
     * @p vendor running at @p freq_ghz.
     */
    CounterBank(const sim::RunResult &run, platforms::Vendor vendor,
                double freq_ghz);

    /** Read an event; nullopt when the vendor does not expose it. */
    std::optional<uint64_t> read(EventKind kind) const;

    platforms::Vendor vendor() const { return vendor_; }

    /** Window length in seconds (wall clock of the routine). */
    double seconds() const { return seconds_; }

  private:
    platforms::Vendor vendor_;
    double seconds_;
    std::array<uint64_t, static_cast<size_t>(EventKind::NumEvents)> raw_{};
};

/**
 * Per-routine bandwidth profile the way CrayPat reports it: derived only
 * from portable counters (memory reads/writes and time).
 */
struct RoutineProfile
{
    std::string routine;
    double seconds = 0.0;
    double readGBs = 0.0;
    double writeGBs = 0.0;
    double totalGBs = 0.0;

    /** Demand share of memory reads; meaningful only when known. */
    double demandFraction = 1.0;
    bool demandFractionKnown = false;
};

/** RoutineProfile's field list (util/fields.hh). */
template <class V, util::RecordOf<RoutineProfile> R>
void
visitFields(V &v, R &p)
{
    v("routine", p.routine);
    v("seconds", p.seconds);
    v("read_gbs", p.readGBs);
    v("write_gbs", p.writeGBs);
    v("total_gbs", p.totalGBs);
    v("demand_fraction", p.demandFraction);
    v("demand_fraction_known", p.demandFractionKnown);
}

/**
 * Builds RoutineProfiles for a platform, mimicking CrayPat's default
 * output (observed bandwidth per routine).
 */
class RoutineProfiler
{
  public:
    explicit RoutineProfiler(const platforms::Platform &platform);

    /** Profile one routine's measurement window. */
    RoutineProfile
    profile(const sim::RunResult &run, const std::string &routine) const;

  private:
    platforms::Platform platform_;
};

} // namespace lll::counters

#endif // LLL_COUNTERS_COUNTER_BANK_HH
