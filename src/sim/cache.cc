#include "sim/cache.hh"

#include <algorithm>
#include <cstring>

#include "sim/stream_prefetcher.hh"
#include "sim/thread_context.hh"

namespace lll::sim
{

void
Cache::CacheStats::reset()
{
    demandHits.reset();
    demandMisses.reset();
    demandMshrHits.reset();
    prefetchFills.reset();
    prefetchUseful.reset();
    prefetchDropped.reset();
    writebacksOut.reset();
    fills.reset();
}

Cache::Cache(const Params &params, EventQueue &eq, RequestPool &pool)
    : params_(params), eq_(eq), pool_(pool),
      mshrs_(params.name + ".mshrs", params.mshrs)
{
    lll_assert((params_.sets & (params_.sets - 1)) == 0,
               "%s: sets must be a power of two", params_.name.c_str());
    lll_assert(params_.ways > 0, "%s: ways must be positive",
               params_.name.c_str());
    lll_assert(params_.ways <= kMaxWays,
               "%s: %u ways exceed the %u one-byte recency ranks order",
               params_.name.c_str(), params_.ways, kMaxWays);
    const size_t ways = params_.ways;
    rankOff_ = ways * sizeof(uint64_t);
    flagOff_ = rankOff_ + (ways + kRankChunk - 1) / kRankChunk * kRankChunk;
    fillOff_ = flagOff_ + ways;
    blockBytes_ = (fillOff_ + kHostLine) / kHostLine * kHostLine;
    // Plain (8-byte aligned) storage with one host line of slack, the
    // first block placed on a line boundary inside it.
    blocks_.resize((params_.sets * blockBytes_ + kHostLine) /
                   sizeof(uint64_t));
    const auto addr = reinterpret_cast<uintptr_t>(blocks_.data());
    blockBase_ = reinterpret_cast<uint8_t *>(blocks_.data()) +
                 ((kHostLine - addr % kHostLine) % kHostLine);
    for (size_t set = 0; set < params_.sets; ++set) {
        uint64_t *tags = tagsOf(blockBase_ + set * blockBytes_);
        std::fill(tags, tags + ways, kInvalidTag);
    }
}

unsigned
Cache::findWay(const uint8_t *b, uint64_t lineAddr) const
{
    const uint64_t *tags = tagsOf(b);
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (tags[w] == lineAddr)
            return w;
    }
    return kNoWay;
}

void
Cache::touch(uint8_t *b, unsigned way) const
{
    // Every rank above the touched way's moves down one and the way
    // becomes the filled count (MRU).  Padding and empty ways hold 0,
    // so whole fixed-size chunks update without a per-way branch.
    uint8_t *ranks = ranksOf(b);
    const uint8_t mru = filledOf(b);
    const uint8_t old = ranks[way];
    if (old == mru)
        return;
    // One 16-lane vector op per chunk: a lane compare yields all-ones
    // (-1) where the rank is above the old one, and adding it
    // decrements exactly those lanes.
    using Chunk = uint8_t __attribute__((vector_size(kRankChunk)));
    const Chunk threshold = Chunk{} + old;
    const size_t rankBytes = flagOff_ - rankOff_;
    for (size_t c = 0; c < rankBytes; c += kRankChunk) {
        Chunk v;
        std::memcpy(&v, ranks + c, sizeof(v));
        v += reinterpret_cast<Chunk>(v > threshold);
        std::memcpy(ranks + c, &v, sizeof(v));
    }
    ranks[way] = mru;
}

bool
Cache::isResident(uint64_t lineAddr) const
{
    return findWay(setBlock(lineAddr), lineAddr) != kNoWay;
}

int
Cache::wayOf(uint64_t lineAddr) const
{
    const unsigned way = findWay(setBlock(lineAddr), lineAddr);
    return way == kNoWay ? -1 : static_cast<int>(way);
}

void
Cache::insert(uint64_t lineAddr, bool dirty, bool prefetched)
{
    // Victim: the first empty way, else the least recently used (rank
    // 1).  Filled ways are a prefix, so the first empty way is the
    // filled count.
    uint8_t *b = setBlock(lineAddr);
    uint8_t *ranks = ranksOf(b);
    uint8_t &filled = filledOf(b);
    unsigned victim;
    if (filled < params_.ways) {
        victim = filled;
        ranks[victim] = ++filled;
    } else {
        victim = static_cast<unsigned>(
            static_cast<const uint8_t *>(std::memchr(ranks, 1, filled)) -
            ranks);
        touch(b, victim);
    }

    uint64_t &tag = tagsOf(b)[victim];
    uint8_t &flags = flagsOf(b)[victim];
    if ((flags & kDirty) != 0) {
        // Dirty eviction: write the victim back downstream.  Writebacks
        // are never refused (write buffers, not MSHRs, carry them).
        MemRequest *wb = pool_.alloc();
        wb->lineAddr = tag;
        wb->type = ReqType::Writeback;
        wb->issued = eq_.now();
        ++stats_.writebacksOut;
        bool ok = down_->tryAccess(wb);
        lll_assert(ok, "%s: downstream refused a writeback",
                   params_.name.c_str());
    }

    tag = lineAddr;
    flags = static_cast<uint8_t>((dirty ? kDirty : 0) |
                                 (prefetched ? kPrefetched : 0));
    lineArrived(lineAddr);
}

bool
Cache::tryAccess(MemRequest *req)
{
    const Tick now = eq_.now();

    if (req->type == ReqType::Writeback) {
        // A dirty line arriving from the level above: update in place if
        // resident, otherwise install it (which may cascade an eviction).
        uint8_t *b = setBlock(req->lineAddr);
        if (const unsigned way = findWay(b, req->lineAddr); way != kNoWay) {
            flagsOf(b)[way] |= kDirty;
            touch(b, way);
        } else {
            insert(req->lineAddr, /*dirty=*/true, /*prefetched=*/false);
        }
        pool_.free(req);
        return true;
    }

    uint8_t *b = setBlock(req->lineAddr);
    if (const unsigned way = findWay(b, req->lineAddr); way != kNoWay) {
        // Hit.
        touch(b, way);
        ++stats_.demandHits;
        uint8_t &flags = flagsOf(b)[way];
        if ((flags & kPrefetched) != 0) {
            ++stats_.prefetchUseful;
            flags &= ~kPrefetched;
        }
        if (req->isStore())
            flags |= kDirty;
        if (req->origin) {
            // Fill request from the level above: respond with the line.
            MemRequest *resp = req;
            eq_.schedule(now + params_.accessLat,
                         fillPrio(*resp->origin, resp->lineAddr),
                         [resp] { resp->origin->handleFill(resp); });
        } else if (req->requester) {
            MemRequest *op = req;
            eq_.schedule(now + params_.accessLat,
                         schedPrio(SchedBand::Thread,
                                   schedThreadKey(op->core, op->thread)),
                         [op] { op->requester->opComplete(op); });
        } else {
            pool_.free(req);
        }
        if (prefetcher_ && isDemand(req->type))
            prefetcher_->observe(req->lineAddr, req->core);
        return true;
    }

    // Miss.
    if (Mshr *mshr = mshrs_.lookup(req->lineAddr)) {
        // The line is already being fetched; coalesce.
        ++stats_.demandMshrHits;
        if (isDemand(req->type) && mshr->originType == ReqType::HwPrefetch)
            ++stats_.prefetchUseful;   // late but still overlapping
        mshr->targets.push_back(req);
        if (prefetcher_ && isDemand(req->type))
            prefetcher_->observe(req->lineAddr, req->core);
        return true;
    }

    if (mshrs_.full()) {
        mshrs_.recordFullStall();
        return false;
    }

    ++stats_.demandMisses;
    Mshr *mshr = mshrs_.allocate(req->lineAddr, req->type, now);
    mshr->targets.push_back(req);
    lineArrived(req->lineAddr);

    MemRequest *fill = pool_.alloc();
    fill->lineAddr = req->lineAddr;
    fill->type = ReqType::DemandLoad;
    fill->core = req->core;
    fill->thread = req->thread;
    fill->issued = now;
    fill->origin = this;
    eq_.schedule(now + params_.accessLat,
                 sendPrio(*this, fill->core, fill->thread, fill->lineAddr),
                 [this, fill] { sendDownstream(fill); });

    if (prefetcher_ && isDemand(req->type))
        prefetcher_->observe(req->lineAddr, req->core);
    return true;
}

PrefetchOutcome
Cache::tryPrefetch(uint64_t lineAddr, ReqType type, int core, int thread)
{
    lll_assert(type == ReqType::SwPrefetch || type == ReqType::HwPrefetch,
               "tryPrefetch with non-prefetch type");
    if (isResident(lineAddr))
        return PrefetchOutcome::Covered;    // already resident
    if (mshrs_.lookup(lineAddr) != nullptr)
        return PrefetchOutcome::Covered;    // already in flight

    // Keep a few MSHRs free for demand traffic.  Under pressure, chain
    // the prefetch to the next cache level if there is one (Intel's L2
    // streamer demotes to LLC prefetches in this situation), or defer it
    // to the local prefetch queue; drop it when that is full too.
    unsigned size = mshrs_.size();
    if (size != 0 && mshrs_.used() + params_.prefetchReserve >= size) {
        if (downCache_ != nullptr) {
            PrefetchOutcome out =
                downCache_->tryPrefetch(lineAddr, type, core, thread);
            if (out != PrefetchOutcome::Dropped)
                return out;
        }
        if (deferredPf_.size() < params_.prefetchQueue) {
            deferredPf_.push_back({lineAddr, type, core, thread});
            return PrefetchOutcome::Deferred;
        }
        ++stats_.prefetchDropped;
        return PrefetchOutcome::Dropped;
    }

    startPrefetch(lineAddr, type, core, thread);
    return PrefetchOutcome::Started;
}

void
Cache::startPrefetch(uint64_t lineAddr, ReqType type, int core, int thread)
{
    const Tick now = eq_.now();
    mshrs_.allocate(lineAddr, type, now);
    lineArrived(lineAddr);

    MemRequest *fill = pool_.alloc();
    fill->lineAddr = lineAddr;
    fill->type = type;
    fill->core = core;
    fill->thread = thread;
    fill->issued = now;
    fill->origin = this;
    eq_.schedule(now + params_.accessLat,
                 sendPrio(*this, fill->core, fill->thread, fill->lineAddr),
                 [this, fill] { sendDownstream(fill); });
}

void
Cache::servePendingPrefetches()
{
    while (!deferredPf_.empty() && !mshrs_.full()) {
        PendingPrefetch pf = deferredPf_.front();
        deferredPf_.pop_front();
        if (isResident(pf.lineAddr) ||
            mshrs_.lookup(pf.lineAddr) != nullptr) {
            continue;   // covered while it waited
        }
        startPrefetch(pf.lineAddr, pf.type, pf.core, pf.thread);
    }
}

void
Cache::sendDownstream(MemRequest *fillReq)
{
    if (!pendingDown_.empty()) {
        pendingDown_.push_back(fillReq);
        return;
    }
    if (!down_->tryAccess(fillReq)) {
        pendingDown_.push_back(fillReq);
        if (!retryRegistered_) {
            retryRegistered_ = true;
            down_->addRetryWaiter(fillReq->lineAddr,
                                  [this] { drainPending(); });
        }
    }
}

void
Cache::drainPending()
{
    retryRegistered_ = false;
    while (!pendingDown_.empty()) {
        MemRequest *head = pendingDown_.front();
        if (!down_->tryAccess(head)) {
            if (!retryRegistered_) {
                retryRegistered_ = true;
                down_->addRetryWaiter(head->lineAddr,
                                      [this] { drainPending(); });
            }
            return;
        }
        pendingDown_.pop_front();
    }
}

void
Cache::completeTargets(Mshr *mshr)
{
    const Tick now = eq_.now();
    uint8_t *b = setBlock(mshr->lineAddr);
    const unsigned way = findWay(b, mshr->lineAddr);
    lll_assert(way != kNoWay, "%s: completing targets without a line",
               params_.name.c_str());

    for (MemRequest *target : mshr->targets) {
        if (target->isStore())
            flagsOf(b)[way] |= kDirty;
        if (target->origin) {
            MemRequest *resp = target;
            eq_.schedule(now, fillPrio(*resp->origin, resp->lineAddr),
                         [resp] { resp->origin->handleFill(resp); });
        } else if (target->requester) {
            MemRequest *op = target;
            eq_.schedule(now,
                         schedPrio(SchedBand::Thread,
                                   schedThreadKey(op->core, op->thread)),
                         [op] { op->requester->opComplete(op); });
        } else {
            pool_.free(target);
        }
    }
    mshr->targets.clear();
}

void
Cache::handleFill(MemRequest *fillReq)
{
    const Tick now = eq_.now();
    bool prefetched = !isDemand(fillReq->type) &&
                      fillReq->type != ReqType::Writeback;

    ++stats_.fills;
    if (prefetched)
        ++stats_.prefetchFills;

    insert(fillReq->lineAddr, /*dirty=*/false, prefetched);

    Mshr *mshr = mshrs_.lookup(fillReq->lineAddr);
    lll_assert(mshr != nullptr, "%s: fill without an MSHR for line %llu",
               params_.name.c_str(),
               static_cast<unsigned long long>(fillReq->lineAddr));
    completeTargets(mshr);
    mshrs_.deallocate(mshr, now);
    pool_.free(fillReq);

    // Deferred prefetches take freed MSHRs ahead of demand retries: a
    // trained streamer runs ahead of the demand front, which is what
    // converts later demand misses into hits.
    servePendingPrefetches();
    notifyRetryWaiters();
}

void
Cache::addRetryWaiter(uint64_t lineAddr, EventFn cb)
{
    retryWaiters_.push_back({lineAddr, false, std::move(cb)});
}

void
Cache::notifyRetryWaiters()
{
    if (retryWaiters_.empty())
        return;
    LLL_INVARIANT(notifying_.empty(), "%s: nested retry round",
                  params_.name.c_str());
    // Run the round from notifying_ while callbacks that re-register
    // land in the (emptied, capacity-keeping) live list.  Nothing in a
    // round frees an MSHR, so a waiter found refusable at its turn
    // would be refused: it records that refusal's full stall and goes
    // back to the live list where its own re-registration would have
    // put it.  A waiter called earlier in the round can still allocate
    // its line, which lets a later one proceed.
    notifying_.swap(retryWaiters_);
    for (RetryWaiter &w : notifying_) {
        if (w.lineArrived || !mshrs_.full()) {
            w.cb();
            continue;
        }
        LLL_INVARIANT(!isResident(w.lineAddr) &&
                          mshrs_.lookup(w.lineAddr) == nullptr,
                      "%s: skipped a waiter whose line %#llx is resident "
                      "or in flight",
                      params_.name.c_str(),
                      static_cast<unsigned long long>(w.lineAddr));
        mshrs_.recordFullStall();
        retryWaiters_.push_back(std::move(w));
    }
    notifying_.clear();
}

void
Cache::resetStats(Tick now)
{
    stats_.reset();
    mshrs_.resetStats(now);
}

void
Cache::registerMetrics(obs::MetricRegistry &reg, const std::string &prefix,
                       std::vector<std::string> &names) const
{
    auto add = [&](const char *suffix, obs::GaugeMetric::Reader reader) {
        std::string name = prefix + suffix;
        reg.registerGauge(name, std::move(reader),
                          obs::GaugeMode::Callback);
        names.push_back(std::move(name));
    };
    add(".demand_hits",
        [this] { return static_cast<double>(stats_.demandHits.value()); });
    add(".demand_misses", [this] {
        return static_cast<double>(stats_.demandMisses.value());
    });
    add(".mshr_hits", [this] {
        return static_cast<double>(stats_.demandMshrHits.value());
    });
    add(".prefetch_fills", [this] {
        return static_cast<double>(stats_.prefetchFills.value());
    });
    add(".prefetch_useful", [this] {
        return static_cast<double>(stats_.prefetchUseful.value());
    });
    add(".prefetch_dropped", [this] {
        return static_cast<double>(stats_.prefetchDropped.value());
    });
    add(".writebacks", [this] {
        return static_cast<double>(stats_.writebacksOut.value());
    });
    add(".fills",
        [this] { return static_cast<double>(stats_.fills.value()); });
}

} // namespace lll::sim
