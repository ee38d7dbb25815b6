#include "sim/system.hh"

#include <algorithm>
#include <sstream>

#include "obs/span.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace lll::sim
{

System::System(const SystemParams &params, const KernelSpec &spec)
    : System(params, std::vector<PhaseSpec>{PhaseSpec{spec, 0}})
{
}

System::System(const SystemParams &params, std::vector<PhaseSpec> phases)
    : params_(params), phases_(std::move(phases))
{
    lll_assert(!phases_.empty(), "system needs at least one phase");
    lll_assert(params_.cores >= 1, "system needs at least one core");
    lll_assert(params_.threadsPerCore >= 1, "need at least one thread");

    eq_.setTieBreakSeed(params_.tieBreakSeed);

    MemCtrl::Params mem_params = params_.mem;
    mem_params.lineBytes = params_.lineBytes;
    mem_ = std::make_unique<MemCtrl>(mem_params, eq_, pool_);

    MemLevel *below_l2 = mem_.get();
    if (params_.hasL3) {
        Cache::Params l3p = params_.l3;
        l3p.level = 3;
        l3p.schedActor = 1;
        l3_ = std::make_unique<Cache>(l3p, eq_, pool_);
        l3_->setDownstream(mem_.get());
        below_l2 = l3_.get();
    }

    for (int c = 0; c < params_.cores; ++c) {
        CoreModel::Params cp;
        cp.id = c;
        cp.freqGHz = params_.freqGHz;
        cp.smtCapacity = params_.smtCapacity;
        cp.threads = params_.threadsPerCore;
        cores_.push_back(std::make_unique<CoreModel>(cp, eq_));

        Cache::Params l2p = params_.l2;
        l2p.name = params_.l2.name + "." + std::to_string(c);
        l2p.level = 2;
        l2p.schedActor = 2 + 2 * static_cast<unsigned>(c);
        l2s_.push_back(std::make_unique<Cache>(l2p, eq_, pool_));
        l2s_.back()->setDownstream(below_l2);
        if (l3_)
            l2s_.back()->setDownstreamCache(l3_.get());

        if (params_.l2PrefetcherEnabled) {
            StreamPrefetcher::Params pfp = params_.pf;
            pfp.name = params_.pf.name + "." + std::to_string(c);
            pfs_.push_back(std::make_unique<StreamPrefetcher>(
                pfp, *l2s_.back()));
            l2s_.back()->setPrefetcher(pfs_.back().get());
        } else {
            pfs_.push_back(nullptr);
        }

        Cache::Params l1p = params_.l1;
        l1p.name = params_.l1.name + "." + std::to_string(c);
        l1p.level = 1;
        l1p.schedActor = 3 + 2 * static_cast<unsigned>(c);
        l1s_.push_back(std::make_unique<Cache>(l1p, eq_, pool_));
        l1s_.back()->setDownstream(l2s_.back().get());

        for (unsigned t = 0; t < params_.threadsPerCore; ++t) {
            ThreadContext::Params tp;
            tp.core = c;
            tp.thread = t;
            tp.lqSize = params_.lqSize;
            tp.threadSeed = params_.seed * 100003 +
                            static_cast<uint64_t>(c) *
                                params_.threadsPerCore + t + 1;
            tp.coreSeed = params_.seed * 100003 +
                          static_cast<uint64_t>(c) + 1;
            threads_.push_back(std::make_unique<ThreadContext>(
                tp, phases_, eq_, pool_, *cores_.back(), *l1s_.back(),
                *l2s_.back()));
        }
    }
}

System::~System()
{
    // The registry outlives this node: keep its gauges readable by
    // freezing every callback at its final value.
    if (sampler_)
        sampler_->disarm();
    if (obsRegistry_) {
        for (const std::string &name : obsNames_)
            obsRegistry_->freezeGauge(name);
    }
}

void
System::attachObservability(obs::MetricRegistry &registry,
                            obs::Sampler::Params params)
{
    lll_assert(!sampler_, "observability already attached");
    obsRegistry_ = &registry;
    sampler_ = std::make_unique<obs::Sampler>(registry, params);

    mem_->registerMetrics(registry, util::names::kSimMemctrlPrefix, obsNames_);
    if (l3_) {
        l3_->registerMetrics(registry, util::names::kSimCacheL3Prefix, obsNames_);
        l3_->mshrs().registerMetrics(registry, util::names::kSimMshrL3Prefix, obsNames_);
    }
    for (int c = 0; c < params_.cores; ++c) {
        const std::string ci = std::to_string(c);
        l1s_[c]->mshrs().registerMetrics(registry, util::names::kSimMshrL1Prefix + ci,
                                         obsNames_);
        l2s_[c]->mshrs().registerMetrics(registry, util::names::kSimMshrL2Prefix + ci,
                                         obsNames_);
        l1s_[c]->registerMetrics(registry, util::names::kSimCacheL1Prefix + ci,
                                 obsNames_);
        l2s_[c]->registerMetrics(registry, util::names::kSimCacheL2Prefix + ci,
                                 obsNames_);
        cores_[c]->registerMetrics(registry, util::names::kSimCorePrefix + ci, obsNames_);
    }

    obs::MetricRegistry::GaugeOptions rate;
    rate.sampled = true;
    registry.registerGauge(
        util::names::kSimEventqEventsPerNs,
        [this] { return static_cast<double>(eq_.processed()); },
        obs::GaugeMode::Rate, rate);
    obsNames_.push_back(util::names::kSimEventqEventsPerNs);

    scheduleSample();
}

void
System::scheduleSample()
{
    eq_.scheduleIn(sampler_->cadence(),
                   schedPrio(SchedBand::Housekeeping, 0), [this] {
                       if (!sampler_ || !sampler_->armed())
                           return;
                       sampler_->sample(eq_.now());
                       scheduleSample();
                   });
}

void
System::scheduleWatchdog()
{
    const Tick cadence = nsToTicks(params_.watchdog.cadenceUs * 1000.0);
    eq_.scheduleIn(cadence, schedPrio(SchedBand::Housekeeping, 1),
                   [this, cadence] {
        if (wdTripped_)
            return;
        const uint64_t delta = eq_.processed() - wdLastProcessed_;
        wdLastProcessed_ = eq_.processed();
        // Net out housekeeping: this watchdog event plus however many
        // sampler ticks fit in one cadence.  Anything beyond that is
        // real simulation work.
        uint64_t housekeeping = 1;
        if (sampler_ && sampler_->armed())
            housekeeping += cadence / sampler_->cadence() + 1;
        if (delta > housekeeping) {
            wdStrikes_ = 0;
        } else if (++wdStrikes_ >= params_.watchdog.maxStrikes) {
            wdTripped_ = true;
            wdDiagnostic_ = diagnosticSnapshot();
            if (obsRegistry_) {
                ++obsRegistry_->counter("sim_errors_total");
                obsRegistry_->annotate(util::names::kSimWatchdogStall,
                                       wdDiagnostic_);
            }
            eq_.requestStop();
            return;
        }
        scheduleWatchdog();
    });
}

std::string
System::diagnosticSnapshot() const
{
    std::ostringstream out;
    out << params_.name << " @" << ticksToNs(eq_.now()) << "ns:"
        << " events=" << eq_.processed()
        << " pending=" << eq_.pending()
        << " mem_outstanding=" << mem_->outstandingNow();
    out << " l1_mshrs=[";
    for (int c = 0; c < params_.cores; ++c)
        out << (c ? "," : "") << l1s_[c]->mshrs().used();
    out << "] l2_mshrs=[";
    for (int c = 0; c < params_.cores; ++c)
        out << (c ? "," : "") << l2s_[c]->mshrs().used();
    out << "]";
    if (l3_)
        out << " l3_mshrs=" << l3_->mshrs().used();
    return out.str();
}

ThreadContext &
System::thread(int core, unsigned t)
{
    return *threads_.at(static_cast<size_t>(core) * params_.threadsPerCore +
                        t);
}

StreamPrefetcher *
System::prefetcher(int core)
{
    return pfs_.at(core).get();
}

void
System::resetStats()
{
    const Tick now = eq_.now();
    mem_->resetStats(now);
    if (l3_)
        l3_->resetStats(now);
    for (auto &c : l2s_)
        c->resetStats(now);
    for (auto &c : l1s_)
        c->resetStats(now);
    for (auto &pf : pfs_) {
        if (pf)
            pf->resetStats();
    }
    for (auto &c : cores_)
        c->resetStats();
    for (auto &t : threads_)
        t->resetStats();
}

util::Result<RunResult>
System::runChecked(double warmup_us, double measure_us)
{
    if (!(measure_us > 0)) {
        return util::Status::error(util::ErrorCode::InvalidArgument,
                                   "measurement window must be positive "
                                   "(got %g us)",
                                   measure_us);
    }

    if (!started_) {
        started_ = true;
        for (auto &t : threads_)
            t->start();
    }
    if (!wdScheduled_) {
        wdScheduled_ = true;
        wdLastProcessed_ = eq_.processed();
        scheduleWatchdog();
    }

    const Tick warmup_ticks = nsToTicks(warmup_us * 1000.0);
    const Tick measure_ticks = nsToTicks(measure_us * 1000.0);

    if (warmup_ticks > 0) {
        LLL_SPAN(util::names::kSimWarmupSpan);
        eq_.runUntil(eq_.now() + warmup_ticks);
    }
    if (wdTripped_) {
        return util::Status::error(
            util::ErrorCode::DeadlineExceeded,
            "watchdog: event queue stopped draining during warmup "
            "(%u strikes of %.1f us); %s",
            wdStrikes_, params_.watchdog.cadenceUs,
            wdDiagnostic_.c_str());
    }
    resetStats();
    const Tick t0 = eq_.now();
    const uint64_t events0 = eq_.processed();
    {
        LLL_SPAN(util::names::kSimMeasureSpan);
        eq_.runUntil(t0 + measure_ticks);
    }
    if (wdTripped_) {
        return util::Status::error(
            util::ErrorCode::DeadlineExceeded,
            "watchdog: event queue stopped draining (%u strikes of "
            "%.1f us); %s",
            wdStrikes_, params_.watchdog.cadenceUs, wdDiagnostic_.c_str());
    }
    const Tick t1 = eq_.now();

    // Request conservation: every pooled request is either parked in an
    // MSHR, queued in the controller, or owned by a thread — the
    // checked-out population can only ever be transiently different
    // from what the components account for, never negative or runaway.
    LLL_INVARIANT(pool_.outstanding() >= 0,
                  "request pool underflow (%lld outstanding)",
                  static_cast<long long>(pool_.outstanding()));
    LLL_INVARIANT(
        pool_.outstanding() <=
            static_cast<int64_t>(params_.cores) *
                    (static_cast<int64_t>(params_.threadsPerCore) *
                         params_.lqSize +
                     params_.l1.mshrs + params_.l2.mshrs) +
                8192,
        "request population exploded: %lld outstanding",
        static_cast<long long>(pool_.outstanding()));

#ifdef LLL_INVARIANTS_ENABLED
    // Little's law as an identity on every MSHR queue: occupancy
    // integrated over [t0, t1] equals the summed residency of every
    // entry clipped to the window, exactly, in ticks.  A queue whose
    // occupancy count drifts from its live entries breaks it.
    auto checkLittle = [t1](const MshrQueue &q) {
        LLL_INVARIANT(q.occupancyIntegral(t1) ==
                          static_cast<double>(q.residencyTicks(t1)),
                      "%s: occupancy integral %.0f != residency %llu "
                      "entry-ticks over the measure window",
                      q.name().c_str(), q.occupancyIntegral(t1),
                      static_cast<unsigned long long>(
                          q.residencyTicks(t1)));
    };
    for (int c = 0; c < params_.cores; ++c) {
        checkLittle(l1s_[c]->mshrs());
        checkLittle(l2s_[c]->mshrs());
    }
    if (l3_)
        checkLittle(l3_->mshrs());
#endif

    RunResult r;
    r.measureSeconds = ticksToNs(t1 - t0) * 1e-9;
    for (auto &t : threads_) {
        r.workDone += t->workDone();
        r.opsIssued += t->opsIssued();
        r.swPrefIssued += t->swPrefetchesIssued();
    }
    r.throughput = r.workDone / r.measureSeconds;

    const MemCtrl::MemStats &ms = mem_->stats();
    const double ns = ticksToNs(t1 - t0);
    r.memReadLines = ms.readLines.value();
    r.memWriteLines = ms.writeLines.value();
    r.memHwPrefetchLines = ms.hwPrefetchLines.value();
    r.memSwPrefetchLines = ms.swPrefetchLines.value();
    r.readGBs = static_cast<double>(r.memReadLines) * params_.lineBytes /
                ns;
    r.writeGBs = static_cast<double>(r.memWriteLines) * params_.lineBytes /
                 ns;
    r.totalGBs = r.readGBs + r.writeGBs;
    r.demandFraction =
        r.memReadLines
            ? static_cast<double>(ms.demandReadLines.value()) /
                  static_cast<double>(r.memReadLines)
            : 1.0;
    r.memUtilization = mem_->utilization(t0, t1);
    r.avgMemLatencyNs = ms.readLatencyNs.mean();
    r.p50MemLatencyNs = ms.readLatencyHist.percentile(0.50);
    r.p95MemLatencyNs = ms.readLatencyHist.percentile(0.95);
    r.p99MemLatencyNs = ms.readLatencyHist.percentile(0.99);
    r.avgMemOutstanding = mem_->avgOutstanding(t0, t1);

    for (int c = 0; c < params_.cores; ++c) {
        const MshrQueue &m1 = l1s_[c]->mshrs();
        const MshrQueue &m2 = l2s_[c]->mshrs();
        r.avgL1MshrOccupancy += m1.avgOccupancy(t0, t1);
        r.avgL2MshrOccupancy += m2.avgOccupancy(t0, t1);
        r.maxL1MshrOccupancy =
            std::max(r.maxL1MshrOccupancy, m1.maxOccupancy());
        r.maxL2MshrOccupancy =
            std::max(r.maxL2MshrOccupancy, m2.maxOccupancy());
        r.l1FullStalls += m1.fullStalls();
        r.l2FullStalls += m2.fullStalls();
        r.l1DemandMisses += l1s_[c]->stats().demandMisses.value();
        r.l1DemandHits += l1s_[c]->stats().demandHits.value();
        r.l2DemandMisses += l2s_[c]->stats().demandMisses.value();
        r.l2DemandHits += l2s_[c]->stats().demandHits.value();
        r.hwPrefUseful += l2s_[c]->stats().prefetchUseful.value();
        r.l2PrefetchDropped += l2s_[c]->stats().prefetchDropped.value();
        if (pfs_[c])
            r.hwPrefIssued += pfs_[c]->stats().issued.value();
    }
    r.avgL1MshrOccupancy /= params_.cores;
    r.avgL2MshrOccupancy /= params_.cores;

    r.eventsProcessed = eq_.processed() - events0;
    return r;
}

RunResult
System::run(double warmup_us, double measure_us)
{
    util::Result<RunResult> r = runChecked(warmup_us, measure_us);
    if (!r.ok())
        lll_fatal("%s", r.status().toString().c_str());
    return r.take();
}

} // namespace lll::sim
