#include "sim/mem_ctrl.hh"

#include <algorithm>

#include "sim/cache.hh"
#include "sim/tracer.hh"
#include "util/logging.hh"

namespace lll::sim
{

void
MemCtrl::MemStats::reset()
{
    readLines.reset();
    writeLines.reset();
    demandReadLines.reset();
    hwPrefetchLines.reset();
    swPrefetchLines.reset();
    readLatencyNs.reset();
    readLatencyHist.reset();
    busyTicks = 0;
}

MemCtrl::MemCtrl(const Params &params, EventQueue &eq, RequestPool &pool)
    : params_(params), eq_(eq), pool_(pool)
{
    lll_assert(params_.peakGBs > 0 && params_.bankServiceNs > 0,
               "memory controller needs positive bandwidth and service");
    const unsigned banks = banksFor(params_);
    lll_assert(banks > 0, "derived zero banks; raise bankServiceNs");
    banks_.assign(banks, 0);
    frontLat_ = nsToTicks(params_.frontLatencyNs);
    backLat_ = nsToTicks(params_.backLatencyNs);
    serviceLat_ = nsToTicks(params_.bankServiceNs);
}

unsigned
MemCtrl::banksFor(const Params &params)
{
    if (params.banksOverride != 0)
        return params.banksOverride;
    return static_cast<unsigned>(params.peakGBs * params.bankServiceNs /
                                     static_cast<double>(params.lineBytes) +
                                 0.5);
}

unsigned
MemCtrl::bankOf(uint64_t lineAddr) const
{
    // Strong mix so strided streams spread across banks, like real
    // controllers' address-interleave hashing.
    uint64_t x = lineAddr;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<unsigned>(x % banks_.size());
}

bool
MemCtrl::tryAccess(MemRequest *req)
{
    const Tick now = eq_.now();
    const unsigned bank = bankOf(req->lineAddr);

    Tick arrive = now + frontLat_;
    Tick start = std::max(arrive, banks_[bank]);
    Tick done = start + serviceLat_;
    LLL_INVARIANT(done > banks_[bank],
                  "%s: bank %u busy-until time not advancing",
                  params_.name.c_str(), bank);
    LLL_INVARIANT(outstanding_.current() >= 0.0,
                  "%s: negative outstanding-read level",
                  params_.name.c_str());
    banks_[bank] = done;
    stats_.busyTicks += serviceLat_;

    if (req->type == ReqType::Writeback) {
        if (tracer_)
            tracer_->record(now, req->lineAddr, req->type, req->core, 0.0);
        ++stats_.writeLines;
        MemRequest *wb = req;
        RequestPool *pool = &pool_;
        eq_.schedule(done, [pool, wb] { pool->free(wb); });
        return true;
    }

    ++stats_.readLines;
    switch (req->type) {
      case ReqType::HwPrefetch:
        ++stats_.hwPrefetchLines;
        break;
      case ReqType::SwPrefetch:
        ++stats_.swPrefetchLines;
        break;
      default:
        ++stats_.demandReadLines;
        break;
    }

    outstanding_.add(now, 1.0);

    Tick resp = done + backLat_;
    double lat_ns = ticksToNs(resp - now);
    stats_.readLatencyNs.sample(lat_ns);
    stats_.readLatencyHist.sample(lat_ns);
    if (tracer_)
        tracer_->record(now, req->lineAddr, req->type, req->core, lat_ns);

    lll_assert(req->origin != nullptr, "memory read without origin cache");
    MemRequest *fill = req;
    eq_.schedule(resp, fillPrio(*fill->origin, fill->lineAddr),
                 [this, fill] {
                     outstanding_.add(eq_.now(), -1.0);
                     fill->origin->handleFill(fill);
                 });
    return true;
}

void
MemCtrl::addRetryWaiter(uint64_t, EventFn cb)
{
    // The controller never refuses, so a retry can fire immediately; this
    // path is only reachable through misuse.
    eq_.scheduleIn(0, std::move(cb));
}

double
MemCtrl::utilization(Tick window_start, Tick now) const
{
    if (now <= window_start)
        return 0.0;
    double window = static_cast<double>(now - window_start);
    return static_cast<double>(stats_.busyTicks) /
           (window * static_cast<double>(banks_.size()));
}

double
MemCtrl::achievedGBs(Tick window_start, Tick now) const
{
    if (now <= window_start)
        return 0.0;
    double bytes = static_cast<double>(stats_.readLines.value() +
                                       stats_.writeLines.value()) *
                   params_.lineBytes;
    double ns = ticksToNs(now - window_start);
    return bytes / ns;   // bytes/ns == GB/s
}

void
MemCtrl::resetStats(Tick now)
{
    stats_.reset();
    outstanding_.reset(now);
}

unsigned
MemCtrl::busyBanks(Tick now) const
{
    unsigned busy = 0;
    for (Tick until : banks_)
        busy += until > now ? 1 : 0;
    return busy;
}

double
MemCtrl::bytesTransferred() const
{
    return static_cast<double>(stats_.readLines.value() +
                               stats_.writeLines.value()) *
           params_.lineBytes;
}

void
MemCtrl::registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix,
                         std::vector<std::string> &names) const
{
    auto add = [&](const char *suffix, obs::GaugeMetric::Reader reader,
                   obs::GaugeMode mode, bool sampled) {
        std::string name = prefix + suffix;
        obs::MetricRegistry::GaugeOptions opt;
        opt.sampled = sampled;
        reg.registerGauge(name, std::move(reader), mode, opt);
        names.push_back(std::move(name));
    };
    // bytes per ns == GB/s, so the per-ns rate needs no scaling.
    add(".bw_gbps", [this] { return bytesTransferred(); },
        obs::GaugeMode::Rate, true);
    add(".queue_depth", [this] { return outstanding_.current(); },
        obs::GaugeMode::Callback, true);
    add(".busy_banks",
        [this] { return static_cast<double>(busyBanks(eq_.now())); },
        obs::GaugeMode::Callback, true);
    add(".banks", [this] { return static_cast<double>(banks_.size()); },
        obs::GaugeMode::Callback, false);
    add(".read_lines",
        [this] { return static_cast<double>(stats_.readLines.value()); },
        obs::GaugeMode::Callback, false);
    add(".write_lines",
        [this] { return static_cast<double>(stats_.writeLines.value()); },
        obs::GaugeMode::Callback, false);
    add(".hw_prefetch_lines",
        [this] {
            return static_cast<double>(stats_.hwPrefetchLines.value());
        },
        obs::GaugeMode::Callback, false);
    add(".sw_prefetch_lines",
        [this] {
            return static_cast<double>(stats_.swPrefetchLines.value());
        },
        obs::GaugeMode::Callback, false);
}

} // namespace lll::sim
