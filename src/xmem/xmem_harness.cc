#include "xmem/xmem_harness.hh"

#include <algorithm>
#include <cstdlib>

#include "obs/executor.hh"
#include "obs/span.hh"
#include "sim/system.hh"
#include "util/stats.hh"
#include "xmem/profile_store.hh"

namespace lll::xmem
{

namespace
{

/** Path latency (ns) a demand miss pays in the cache hierarchy before
 *  reaching the memory controller. */
double
cachePathNs(const sim::SystemParams &sp)
{
    Tick path = sp.l1.accessLat + sp.l2.accessLat;
    if (sp.hasL3)
        path += sp.l3.accessLat;
    return ticksToNs(path);
}

/** The sweep's operating points, low load first. */
std::vector<OperatingPoint>
operatingPoints(const XMemHarness::Params &p)
{
    std::vector<OperatingPoint> ops;
    // Low-bandwidth points: two in-flight random requests per thread
    // with decreasing think time.
    for (double d : p.delays)
        ops.push_back({2, d, false});
    // Ramp random-access concurrency toward the L1-MSHR ceiling.
    for (unsigned w : p.windows)
        ops.push_back({w, 4.0, false});
    // Streaming load pushes the sweep to peak achievable bandwidth;
    // throttled streaming points fill in the knee of the curve.
    for (double d : {48.0, 32.0, 24.0, 16.0, 12.0, 8.0, 6.0})
        ops.push_back({8, d, true});
    for (unsigned w : p.windows) {
        if (w >= 4)
            ops.push_back({w, 2.0, true});
    }
    return ops;
}

/** The load generator's kernel at operating point @p op. */
sim::KernelSpec
loadSpec(const platforms::Platform &platform, const OperatingPoint &op)
{
    sim::KernelSpec spec;
    spec.name = "xmem-load";
    if (op.streaming) {
        // High-load points: forward sequential readers, the load
        // pattern X-Mem's bandwidth threads use.  The hardware
        // prefetcher engages, which is the only way past the L1-MSHR
        // bandwidth ceiling on every platform.
        for (int i = 0; i < 4; ++i) {
            sim::StreamDesc s;
            s.kind = sim::StreamDesc::Kind::Sequential;
            s.footprintLines = (1ULL << 20) * 64 / platform.lineBytes;
            s.weight = 1.0;
            spec.streams.push_back(s);
        }
    } else {
        // Low-load points: random accesses over a buffer larger than
        // any cache (X-Mem's pointer chase), prefetcher untrained.
        sim::StreamDesc s;
        s.kind = sim::StreamDesc::Kind::Random;
        s.footprintLines = (1ULL << 21) * 64 / platform.lineBytes;
        s.weight = 1.0;
        spec.streams.push_back(s);
    }
    spec.window = op.window;
    spec.computeCyclesPerOp = op.delayCycles;
    return spec;
}

/** @p field of @p sp's L1, L2 and L3 parameters. */
std::array<unsigned, 3>
perLevel(const sim::SystemParams &sp, unsigned sim::Cache::Params::*field)
{
    return {sp.l1.*field, sp.l2.*field, sp.l3.*field};
}

/** Whole-run peak MSHR occupancy of @p sys at L1, L2 and L3. */
std::array<unsigned, 3>
peakOccupancy(sim::System &sys)
{
    std::array<unsigned, 3> peak{};
    for (int c = 0; c < sys.params().cores; ++c) {
        peak[0] = std::max(peak[0], sys.l1(c).mshrs().peakOccupancy());
        peak[1] = std::max(peak[1], sys.l2(c).mshrs().peakOccupancy());
    }
    if (sys.l3())
        peak[2] = sys.l3()->mshrs().peakOccupancy();
    return peak;
}

/** A queue of capacity @p cap (0 = unbounded) is never full and never
 *  trips a prefetch reserve of @p reserve in a run that peaks at
 *  @p peak. */
bool
neverNear(unsigned peak, unsigned reserve, unsigned cap)
{
    return cap == 0 || peak + reserve < cap;
}

} // namespace

std::vector<PointMemo::Use>
PointMemo::uses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return uses_;
}

std::optional<LatencyProfile::Point>
PointMemo::find(const Key &key, const std::array<unsigned, 3> &capacity,
                const std::string &platform, size_t index)
{
    const std::array<unsigned, 3> reserve =
        perLevel(key.sys, &sim::Cache::Params::prefetchReserve);
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry &e : entries_) {
        if (!(e.key == key))
            continue;
        bool same = true;
        for (size_t l = 0; l < capacity.size(); ++l) {
            same = same && (e.capacity[l] == capacity[l] ||
                            (neverNear(e.peak[l], reserve[l], e.capacity[l]) &&
                             neverNear(e.peak[l], reserve[l], capacity[l])));
        }
        if (same) {
            uses_.push_back({platform, index, true, e.peak});
            return e.point;
        }
    }
    return std::nullopt;
}

void
PointMemo::add(Entry entry, const std::string &platform, size_t index)
{
    std::lock_guard<std::mutex> lock(mu_);
    uses_.push_back({platform, index, false, entry.peak});
    entries_.push_back(std::move(entry));
}

util::Result<LatencyProfile>
XMemHarness::measure(const platforms::Platform &platform) const
{
    obs::ScopedSpan span("xmem.characterize[" + platform.name + "]");
    const std::vector<OperatingPoint> ops = operatingPoints(params_);
    const double path_ns = cachePathNs(platform.proto);

    // Every point builds its own System from a fixed seed and shares
    // nothing, so point i lands in slot i identically at any jobs.
    std::vector<LatencyProfile::Point> points(ops.size());
    std::vector<util::Status> failed(ops.size());
    obs::Executor(params_.jobs).run(ops.size(), [&](size_t i) {
        const OperatingPoint &op = ops[i];
        sim::SystemParams sp = platform.sysParams(platform.totalCores, 1);
        sp.seed = params_.seed;
        PointMemo::Key key{sp, op, platform.lineBytes, params_.warmupUs,
                           params_.measureUs};
        key.sys.l1.mshrs = key.sys.l2.mshrs = key.sys.l3.mshrs = 0;
        const std::array<unsigned, 3> capacity =
            perLevel(sp, &sim::Cache::Params::mshrs);
        if (memo_) {
            if (std::optional<LatencyProfile::Point> hit =
                    memo_->find(key, capacity, platform.name, i)) {
                points[i] = *hit;
                return;
            }
        }
        sim::System sys(sp, loadSpec(platform, op));
        util::Result<sim::RunResult> r =
            sys.runChecked(params_.warmupUs, params_.measureUs);
        if (!r.ok()) {
            failed[i] = r.status();
            return;
        }
        points[i].bwGBs = r->totalGBs;
        points[i].latencyNs = path_ns + r->avgMemLatencyNs;
        if (memo_) {
            memo_->add({std::move(key), capacity, peakOccupancy(sys),
                        points[i]},
                       platform.name, i);
        }
    });
    // The first failing point in sweep order, whatever the jobs.
    for (size_t i = 0; i < ops.size(); ++i) {
        LLL_RETURN_IF_ERROR(failed[i].withContext(
            "characterizing '%s' at point %zu", platform.name.c_str(), i));
    }

    return LatencyProfile(platform.name, platform.peakGBs,
                          std::move(points));
}

util::Result<LatencyProfile>
XMemHarness::measureCachedChecked(const platforms::Platform &platform,
                                  const std::string &cache_path) const
{
    return ProfileStore::global().loadOrMeasure(platform, cache_path,
                                                *this);
}

std::string
defaultProfilePath(const platforms::Platform &platform)
{
    const char *dir = std::getenv("LLL_PROFILE_DIR");
    std::string base = dir ? dir : "data/profiles";
    // Design-space candidates ("skl~banks=8,...") are cache artifacts,
    // not stock-platform truth: keep them in their own subdirectory so
    // the committed profiles stay alone in the top level.
    if (platform.name.find('~') != std::string::npos)
        base += "/candidates";
    return base + "/" + platform.name + ".profile";
}

} // namespace lll::xmem
