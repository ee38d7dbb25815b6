#include "counters/counter_bank.hh"

#include "util/logging.hh"

namespace lll::counters
{

CounterBank::CounterBank(const sim::RunResult &run,
                         platforms::Vendor vendor, double freq_ghz)
    : vendor_(vendor), seconds_(run.measureSeconds)
{
    auto set = [this](EventKind kind, uint64_t v) {
        raw_[static_cast<size_t>(kind)] = v;
    };
    set(EventKind::Cycles,
        static_cast<uint64_t>(run.measureSeconds * freq_ghz * 1e9));
    set(EventKind::MemReadLines, run.memReadLines);
    set(EventKind::MemWriteLines, run.memWriteLines);
    set(EventKind::L1DemandMisses, run.l1DemandMisses);
    set(EventKind::L2DemandMisses, run.l2DemandMisses);
    set(EventKind::HwPrefetchMemLines, run.memHwPrefetchLines);
    set(EventKind::SwPrefetchMemLines, run.memSwPrefetchLines);
    set(EventKind::L1MshrFullStalls, run.l1FullStalls);
    set(EventKind::L2MshrFullStalls, run.l2FullStalls);
    // The Intel load-latency facility overcounts (TLB walks, replays —
    // §II of the paper); model that bias coarsely as "most misses look
    // slow" when true latency is high.
    set(EventKind::LoadLatencyAbove512,
        run.avgMemLatencyNs > 150.0 ? run.l1DemandMisses * 3 / 4
                                    : run.l1DemandMisses / 10);
}

std::optional<uint64_t>
CounterBank::read(EventKind kind) const
{
    if (!isReadable(vendor_, kind))
        return std::nullopt;
    return raw_[static_cast<size_t>(kind)];
}

RoutineProfiler::RoutineProfiler(const platforms::Platform &platform)
    : platform_(platform)
{
}

RoutineProfile
RoutineProfiler::profile(const sim::RunResult &run,
                         const std::string &routine) const
{
    CounterBank bank(run, platform_.vendor, platform_.freqGHz);

    RoutineProfile p;
    p.routine = routine;
    p.seconds = bank.seconds();

    const double line_gb = platform_.lineBytes * 1e-9;
    // Memory traffic is portable: every vendor exposes it, so a hidden
    // event is a bug in the vendor matrix (DESIGN §9, regime 3).
    auto portable = [&bank, this](EventKind kind) {
        const std::optional<uint64_t> v = bank.read(kind);
        lll_assert(v.has_value(), "vendor %s hides portable event '%s'",
                   platforms::vendorName(platform_.vendor), eventName(kind));
        return *v;
    };
    const uint64_t reads = portable(EventKind::MemReadLines);
    const uint64_t writes = portable(EventKind::MemWriteLines);
    p.readGBs = static_cast<double>(reads) * line_gb / p.seconds;
    p.writeGBs = static_cast<double>(writes) * line_gb / p.seconds;
    p.totalGBs = p.readGBs + p.writeGBs;

    // Demand-vs-prefetch split is vendor-limited; report it when the
    // counters exist (paper: "this data is also often exposed through
    // performance counters or one may determine it by disabling the
    // hardware prefetcher").
    if (auto hw = bank.read(EventKind::HwPrefetchMemLines)) {
        auto sw = bank.read(EventKind::SwPrefetchMemLines);
        uint64_t pref = *hw + (sw ? *sw : 0);
        p.demandFraction =
            reads ? 1.0 - static_cast<double>(pref) /
                              static_cast<double>(reads)
                  : 1.0;
        p.demandFractionKnown = true;
    }
    return p;
}

} // namespace lll::counters
