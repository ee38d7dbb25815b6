#include "perf/microbench.hh"

#include <algorithm>
#include <cmath>

#include "obs/registry.hh"
#include "obs/timer.hh"
#include "platforms/platform.hh"
#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/mshr_queue.hh"
#include "sim/op_stream.hh"
#include "sim/system.hh"

namespace lll::perf
{

namespace
{

/** Keep the compiler from discarding a benchmark result. */
volatile uint64_t g_sink; // NOLINT: the sink must be a mutable global

class EventQueueKernel : public KernelInstance
{
  public:
    uint64_t
    runBatch() override
    {
        for (int i = 0; i < 64; ++i) {
            eq_.scheduleIn(static_cast<Tick>(i * 7 % 97),
                           [this] { ++fired_; });
        }
        eq_.runUntil(eq_.now() + 100);
        g_sink = fired_;
        return 64;
    }

  private:
    sim::EventQueue eq_;
    uint64_t fired_ = 0;
};

class EventDispatchKernel : public KernelInstance
{
  public:
    /**
     * Same-tick batches: eight ticks each carrying eight events across
     * the scheduling bands, so this times the bucket sort + batched
     * class dispatch rather than schedule/fire of lone events.
     */
    uint64_t
    runBatch() override
    {
        for (int t = 0; t < 8; ++t) {
            const Tick when = eq_.now() + static_cast<Tick>(t * 13 + 1);
            for (uint64_t k = 0; k < 8; ++k) {
                eq_.schedule(when,
                             sim::schedPrio(sim::SchedBand::Thread, k / 2),
                             [this] { ++fired_; });
            }
        }
        eq_.runUntil(eq_.now() + 120);
        g_sink = fired_;
        return 64;
    }

  private:
    sim::EventQueue eq_;
    uint64_t fired_ = 0;
};

class MshrKernel : public KernelInstance
{
  public:
    MshrKernel() : q_("bench", 16) {}

    uint64_t
    runBatch() override
    {
        for (int i = 0; i < 12; ++i)
            q_.allocate(line_ + i, sim::ReqType::DemandLoad, now_++);
        for (int i = 0; i < 12; ++i)
            q_.deallocate(q_.lookup(line_ + i), now_++);
        line_ += 64;
        return 24;
    }

  private:
    sim::MshrQueue q_;
    Tick now_ = 0;
    uint64_t line_ = 0;
};

class OpStreamKernel : public KernelInstance
{
  public:
    OpStreamKernel() : ops_(makeSpec(), 1, 1) {}

    uint64_t
    runBatch() override
    {
        uint64_t sum = 0;
        for (int i = 0; i < 256; ++i)
            sum += ops_.at(n_++).lineAddr;
        g_sink = sum;
        return 256;
    }

  private:
    static sim::KernelSpec
    makeSpec()
    {
        sim::KernelSpec spec;
        sim::StreamDesc a;
        a.kind = sim::StreamDesc::Kind::Random;
        a.footprintLines = 1 << 20;
        spec.streams.push_back(a);
        sim::StreamDesc b;
        b.kind = sim::StreamDesc::Kind::Sequential;
        b.footprintLines = 1 << 18;
        b.weight = 0.4;
        spec.streams.push_back(b);
        return spec;
    }

    sim::OpStream ops_;
    uint64_t n_ = 0;
};

class CacheHitKernel : public KernelInstance
{
  public:
    CacheHitKernel()
        : l2_(cacheParams(), eq_, pool_), l1_(cacheParams(), eq_, pool_),
          mem_(sim::MemCtrl::Params(), eq_, pool_)
    {
        l1_.setDownstream(&l2_);
        l2_.setDownstream(&mem_);
        // Warm a small set of lines via writebacks (installs directly).
        for (uint64_t line = 0; line < 256; ++line) {
            sim::MemRequest *wb = pool_.alloc();
            wb->lineAddr = line;
            wb->type = sim::ReqType::Writeback;
            l1_.tryAccess(wb);
        }
    }

    uint64_t
    runBatch() override
    {
        for (int i = 0; i < 256; ++i) {
            sim::MemRequest *req = pool_.alloc();
            req->lineAddr = line_;
            req->type = sim::ReqType::DemandLoad;
            g_sink = static_cast<uint64_t>(l1_.tryAccess(req));
            line_ = (line_ + 1) % 256;
            eq_.runUntil(eq_.now() + 10000);
        }
        return 256;
    }

  private:
    static sim::Cache::Params
    cacheParams()
    {
        sim::Cache::Params cp;
        cp.sets = 64;
        cp.ways = 8;
        cp.mshrs = 10;
        return cp;
    }

    sim::EventQueue eq_;
    sim::RequestPool pool_;
    sim::Cache l2_;
    sim::Cache l1_;
    sim::MemCtrl mem_;
    uint64_t line_ = 0;
};

class SystemStepKernel : public KernelInstance
{
  public:
    /** @p sampled attaches the telemetry sampler at its default
     *  cadence, so the delta against the plain kernel is the sampler's
     *  overhead (budget: < 5%). */
    explicit SystemStepKernel(bool sampled = false)
        : registry_(sampled ? std::make_unique<obs::MetricRegistry>()
                            : nullptr),
          sys_(sysParams(), makeSpec())
    {
        if (registry_)
            sys_.attachObservability(*registry_);
        sys_.run(2.0, 2.0); // warm start
    }

    uint64_t
    runBatch() override
    {
        const sim::RunResult r = sys_.run(0.0001, 1.0);
        g_sink = r.opsIssued;
        // opsIssued can legitimately be 0 in a tiny window; count the
        // microstep itself so throughput never divides by zero items.
        return r.opsIssued > 0 ? r.opsIssued : 1;
    }

  private:
    static sim::KernelSpec
    makeSpec()
    {
        sim::KernelSpec spec;
        sim::StreamDesc s;
        s.kind = sim::StreamDesc::Kind::Random;
        s.footprintLines = 1 << 18;
        spec.streams.push_back(s);
        spec.window = 8;
        spec.computeCyclesPerOp = 4.0;
        return spec;
    }

    static sim::SystemParams
    sysParams()
    {
        return platforms::skl().sysParams(4, 1);
    }

    // Declared before sys_: the System freezes its gauges into the
    // registry when it is destroyed.
    std::unique_ptr<obs::MetricRegistry> registry_;
    sim::System sys_;
};

template <typename T>
std::unique_ptr<KernelInstance>
make()
{
    return std::make_unique<T>();
}

} // namespace

const std::vector<KernelInfo> &
kernels()
{
    static const std::vector<KernelInfo> registry = {
        {"event_queue", "event queue schedule/fire throughput",
         make<EventQueueKernel>},
        {"event_dispatch", "same-tick batch dispatch across bands",
         make<EventDispatchKernel>},
        {"mshr", "MSHR allocate/lookup/deallocate cycle",
         make<MshrKernel>},
        {"op_stream", "stateless op generation (random + sequential)",
         make<OpStreamKernel>},
        {"cache_hit", "warm L1 hits through the cache hierarchy",
         make<CacheHitKernel>},
        {"system_step", "end-to-end system microstep (skl, 4 cores)",
         make<SystemStepKernel>},
        {"system_step_sampled",
         "system microstep with the telemetry sampler attached",
         []() -> std::unique_ptr<KernelInstance> {
             return std::make_unique<SystemStepKernel>(true);
         }},
    };
    return registry;
}

const KernelInfo *
findKernel(const std::string &name)
{
    for (const KernelInfo &k : kernels()) {
        if (k.name == name)
            return &k;
    }
    return nullptr;
}

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted.front();
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

KernelStats
runKernel(const KernelInfo &kernel, const TrialParams &params)
{
    KernelStats stats;
    stats.name = kernel.name;
    stats.trials = std::max(1, params.trials);

    std::unique_ptr<KernelInstance> instance = kernel.make();

    // Untimed warm-up: first-touch allocation, cache warming.
    {
        obs::WallTimer warm;
        while (warm.elapsedNs() < params.warmupMs * 1e6)
            instance->runBatch();
    }

    const double trial_ns = std::max(1.0, params.measureMs * 1e6);
    for (int trial = 0; trial < stats.trials; ++trial) {
        uint64_t trial_items = 0;
        obs::WallTimer timer;
        double elapsed = 0.0;
        do {
            obs::WallTimer batch_timer;
            const uint64_t items = instance->runBatch();
            const double batch_ns = batch_timer.elapsedNs();
            ++stats.batches;
            stats.items += items;
            trial_items += items;
            stats.itemNs.sample(batch_ns /
                                static_cast<double>(items ? items : 1));
            elapsed = timer.elapsedNs();
        } while (elapsed < trial_ns);
        stats.trialEventsPerSec.push_back(
            static_cast<double>(trial_items) / (elapsed / 1e9));
    }

    std::vector<double> sorted = stats.trialEventsPerSec;
    std::sort(sorted.begin(), sorted.end());
    stats.minEps = sorted.front();
    stats.maxEps = sorted.back();
    stats.medianEps = quantileSorted(sorted, 0.50);
    stats.iqrEps =
        quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25);
    stats.p50ItemNs = stats.itemNs.percentile(0.50);
    stats.p90ItemNs = stats.itemNs.percentile(0.90);
    stats.p99ItemNs = stats.itemNs.percentile(0.99);
    return stats;
}

} // namespace lll::perf
