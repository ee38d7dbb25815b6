/**
 * @file
 * Tests for the cache: hit/miss flows, MSHR interplay, coalescing,
 * backpressure + retry, eviction/writeback, LRU, and the prefetch
 * outcome ladder (start / covered / deferred / chained / dropped).
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/mem_ctrl.hh"

namespace lll::sim
{
namespace
{

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
    {
        Cache::Params l1p;
        l1p.name = "l1t";
        l1p.sets = 4;
        l1p.ways = 2;
        l1p.accessLat = nsToTicks(2.0);
        l1p.mshrs = 3;
        l1_ = std::make_unique<Cache>(l1p, eq_, pool_);

        Cache::Params l2p;
        l2p.name = "l2t";
        l2p.sets = 16;
        l2p.ways = 4;
        l2p.accessLat = nsToTicks(6.0);
        l2p.mshrs = 4;
        l2p.prefetchQueue = 2;
        l2_ = std::make_unique<Cache>(l2p, eq_, pool_);

        MemCtrl::Params mp;
        mp.peakGBs = 10.0;
        mp.frontLatencyNs = 20.0;
        mp.bankServiceNs = 12.0;
        mp.backLatencyNs = 3.0;
        mem_ = std::make_unique<MemCtrl>(mp, eq_, pool_);

        l1_->setDownstream(l2_.get());
        l2_->setDownstream(mem_.get());
    }

    /** Install a line without a fetch (arrives as a clean writeback). */
    void
    preload(Cache &c, uint64_t line)
    {
        MemRequest *wb = pool_.alloc();
        wb->lineAddr = line;
        wb->type = ReqType::Writeback;
        ASSERT_TRUE(c.tryAccess(wb));
        // Writeback installs dirty; overwrite flag via a re-fill is not
        // needed for these tests.
    }

    /** Fire a demand load with no owner (completion self-frees). */
    bool
    load(Cache &c, uint64_t line)
    {
        MemRequest *req = pool_.alloc();
        req->lineAddr = line;
        req->type = ReqType::DemandLoad;
        req->issued = eq_.now();
        bool ok = c.tryAccess(req);
        if (!ok)
            pool_.free(req);
        return ok;
    }

    bool
    store(Cache &c, uint64_t line)
    {
        MemRequest *req = pool_.alloc();
        req->lineAddr = line;
        req->type = ReqType::DemandStore;
        bool ok = c.tryAccess(req);
        if (!ok)
            pool_.free(req);
        return ok;
    }

    void settle() { eq_.runUntil(eq_.now() + nsToTicks(10000.0)); }

    EventQueue eq_;
    RequestPool pool_;
    std::unique_ptr<Cache> l1_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<MemCtrl> mem_;
};

TEST_F(CacheTest, HitOnResidentLine)
{
    preload(*l1_, 100);
    EXPECT_TRUE(l1_->isResident(100));
    EXPECT_TRUE(load(*l1_, 100));
    settle();
    EXPECT_EQ(l1_->stats().demandHits.value(), 1u);
    EXPECT_EQ(l1_->stats().demandMisses.value(), 0u);
}

TEST_F(CacheTest, MissAllocatesMshrAndFills)
{
    EXPECT_TRUE(load(*l1_, 200));
    EXPECT_EQ(l1_->mshrs().used(), 1u);
    settle();
    EXPECT_EQ(l1_->mshrs().used(), 0u);
    EXPECT_TRUE(l1_->isResident(200));
    EXPECT_EQ(l1_->stats().demandMisses.value(), 1u);
    EXPECT_EQ(mem_->stats().readLines.value(), 1u);
}

TEST_F(CacheTest, MissFillsAllLevels)
{
    load(*l1_, 300);
    settle();
    EXPECT_TRUE(l1_->isResident(300));
    EXPECT_TRUE(l2_->isResident(300));
}

TEST_F(CacheTest, CoalescingSecondMissToSameLine)
{
    load(*l1_, 400);
    load(*l1_, 400);
    EXPECT_EQ(l1_->mshrs().used(), 1u);
    EXPECT_EQ(l1_->stats().demandMshrHits.value(), 1u);
    settle();
    // One memory read despite two demand ops.
    EXPECT_EQ(mem_->stats().readLines.value(), 1u);
}

TEST_F(CacheTest, MshrFullRefusesAndCountsStall)
{
    EXPECT_TRUE(load(*l1_, 1));
    EXPECT_TRUE(load(*l1_, 2));
    EXPECT_TRUE(load(*l1_, 3));
    EXPECT_FALSE(load(*l1_, 4));   // 3 MSHRs
    EXPECT_EQ(l1_->mshrs().fullStalls(), 1u);
}

TEST_F(CacheTest, RetryWaiterFiresWhenMshrFrees)
{
    load(*l1_, 1);
    load(*l1_, 2);
    load(*l1_, 3);
    EXPECT_FALSE(load(*l1_, 4));
    int fired = 0;
    l1_->addRetryWaiter(4, [&] { ++fired; });
    settle();
    EXPECT_GE(fired, 1);
    // Retrying now succeeds.
    EXPECT_TRUE(load(*l1_, 4));
    settle();
    EXPECT_TRUE(l1_->isResident(4));
}

TEST_F(CacheTest, StoreMissMarksLineDirtyAndWritebackOnEviction)
{
    // l1 has 4 sets; lines k*4 map to set 0 (2 ways).
    EXPECT_TRUE(store(*l1_, 0));
    settle();
    EXPECT_TRUE(l1_->isResident(0));
    // Evict line 0 by filling set 0 with two more lines.
    load(*l1_, 4);
    settle();
    load(*l1_, 8);
    settle();
    EXPECT_FALSE(l1_->isResident(0));
    EXPECT_GE(l1_->stats().writebacksOut.value(), 1u);
    // The dirty line landed in L2 (still dirty there).
    EXPECT_TRUE(l2_->isResident(0));
}

TEST_F(CacheTest, LruEvictsLeastRecentlyUsed)
{
    // Fill set 0 (ways=2) with lines 0 and 4, touch 0, insert 8:
    // 4 must be the victim.
    load(*l1_, 0);
    settle();
    load(*l1_, 4);
    settle();
    load(*l1_, 0);   // refresh 0
    settle();
    load(*l1_, 8);
    settle();
    EXPECT_TRUE(l1_->isResident(0));
    EXPECT_FALSE(l1_->isResident(4));
    EXPECT_TRUE(l1_->isResident(8));
}

TEST_F(CacheTest, PrefetchStartsAndFills)
{
    EXPECT_EQ(l2_->tryPrefetch(500, ReqType::HwPrefetch, 0, 0),
              PrefetchOutcome::Started);
    EXPECT_EQ(l2_->mshrs().used(), 1u);
    settle();
    EXPECT_TRUE(l2_->isResident(500));
    EXPECT_EQ(l2_->stats().prefetchFills.value(), 1u);
    // L1 does not see prefetch fills.
    EXPECT_FALSE(l1_->isResident(500));
}

TEST_F(CacheTest, PrefetchCoveredWhenResidentOrInFlight)
{
    preload(*l2_, 600);
    EXPECT_EQ(l2_->tryPrefetch(600, ReqType::HwPrefetch, 0, 0),
              PrefetchOutcome::Covered);
    EXPECT_EQ(l2_->tryPrefetch(601, ReqType::SwPrefetch, 0, 0),
              PrefetchOutcome::Started);
    EXPECT_EQ(l2_->tryPrefetch(601, ReqType::SwPrefetch, 0, 0),
              PrefetchOutcome::Covered);
}

TEST_F(CacheTest, PrefetchDeferredUnderPressureThenServed)
{
    // Fill l2's 4 MSHRs minus reserve(1): 3 allocations allowed for
    // prefetch; the 4th defers.
    EXPECT_EQ(l2_->tryPrefetch(1, ReqType::HwPrefetch, 0, 0),
              PrefetchOutcome::Started);
    EXPECT_EQ(l2_->tryPrefetch(2, ReqType::HwPrefetch, 0, 0),
              PrefetchOutcome::Started);
    EXPECT_EQ(l2_->tryPrefetch(3, ReqType::HwPrefetch, 0, 0),
              PrefetchOutcome::Started);
    EXPECT_EQ(l2_->tryPrefetch(4, ReqType::HwPrefetch, 0, 0),
              PrefetchOutcome::Deferred);
    settle();
    // The deferred prefetch ran once capacity freed.
    EXPECT_TRUE(l2_->isResident(4));
}

TEST_F(CacheTest, PrefetchDroppedWhenQueueFullToo)
{
    for (uint64_t line = 1; line <= 3; ++line)
        l2_->tryPrefetch(line, ReqType::HwPrefetch, 0, 0);
    EXPECT_EQ(l2_->tryPrefetch(4, ReqType::HwPrefetch, 0, 0),
              PrefetchOutcome::Deferred);
    EXPECT_EQ(l2_->tryPrefetch(5, ReqType::HwPrefetch, 0, 0),
              PrefetchOutcome::Deferred);
    // prefetchQueue = 2 -> the next one drops.
    EXPECT_EQ(l2_->tryPrefetch(6, ReqType::HwPrefetch, 0, 0),
              PrefetchOutcome::Dropped);
    EXPECT_EQ(l2_->stats().prefetchDropped.value(), 1u);
    settle();
}

TEST_F(CacheTest, PrefetchChainsToDownstreamCacheUnderPressure)
{
    // Give L1 a downstream cache pointer (L2) and saturate L1 MSHRs.
    l1_->setDownstreamCache(l2_.get());
    load(*l1_, 11);
    load(*l1_, 12);
    EXPECT_TRUE(load(*l1_, 13));   // L1 MSHRs (3) now full
    PrefetchOutcome out = l1_->tryPrefetch(14, ReqType::HwPrefetch, 0, 0);
    EXPECT_EQ(out, PrefetchOutcome::Started);   // started at L2 instead
    settle();
    EXPECT_TRUE(l2_->isResident(14));
    EXPECT_FALSE(l1_->isResident(14));
}

TEST_F(CacheTest, DemandHitOnPrefetchedLineCountsUseful)
{
    l2_->tryPrefetch(700, ReqType::HwPrefetch, 0, 0);
    settle();
    // L1 miss -> L2 hit on the prefetched line.
    load(*l1_, 700);
    settle();
    EXPECT_EQ(l2_->stats().prefetchUseful.value(), 1u);
    EXPECT_TRUE(l1_->isResident(700));
}

TEST_F(CacheTest, DemandCoalescesOntoInFlightPrefetch)
{
    l2_->tryPrefetch(800, ReqType::HwPrefetch, 0, 0);
    // Demand arrives while the prefetch is still in flight.
    load(*l1_, 800);
    settle();
    EXPECT_EQ(mem_->stats().readLines.value(), 1u);   // fetched once
    EXPECT_TRUE(l1_->isResident(800));
    EXPECT_GE(l2_->stats().prefetchUseful.value(), 1u);   // late useful
}

TEST_F(CacheTest, NoRequestsLeak)
{
    for (uint64_t line = 0; line < 64; ++line)
        load(*l1_, line * 3);
    l2_->tryPrefetch(1000, ReqType::SwPrefetch, 0, 0);
    settle();
    EXPECT_EQ(pool_.outstanding(), 0);
}

TEST_F(CacheTest, HashedSetsStillFindLines)
{
    Cache::Params cp;
    cp.name = "hashed";
    cp.sets = 16;
    cp.ways = 2;
    cp.mshrs = 0;
    cp.hashedSets = true;
    Cache c(cp, eq_, pool_);
    c.setDownstream(mem_.get());
    for (uint64_t line = 0; line < 8; ++line) {
        MemRequest *wb = pool_.alloc();
        wb->lineAddr = line;
        wb->type = ReqType::Writeback;
        c.tryAccess(wb);
    }
    for (uint64_t line = 0; line < 8; ++line)
        EXPECT_TRUE(c.isResident(line));
}

TEST_F(CacheTest, VictimIsFirstEmptyWayThenLowestStamp)
{
    // One set of four ways makes the victim order fully observable.
    Cache::Params cp;
    cp.name = "one_set";
    cp.sets = 1;
    cp.ways = 4;
    cp.mshrs = 4;
    Cache c(cp, eq_, pool_);
    c.setDownstream(l2_.get());

    preload(c, 10);
    preload(c, 11);
    EXPECT_EQ(c.wayOf(10), 0);
    EXPECT_EQ(c.wayOf(11), 1);
    // 11 is now the least recently used line, but an empty way still
    // wins, and of the two empty ways the first.
    load(c, 10);
    settle();
    preload(c, 12);
    EXPECT_EQ(c.wayOf(12), 2);
    preload(c, 13);
    EXPECT_EQ(c.wayOf(13), 3);
    EXPECT_TRUE(c.isResident(11));

    // Full set, use order 11, 10, 12, 13 (oldest first).  Each insert
    // takes the lowest stamp's way.
    preload(c, 14);
    EXPECT_FALSE(c.isResident(11));
    EXPECT_EQ(c.wayOf(14), 1);
    load(c, 12);    // refresh 12: order is now 10, 13, 14, 12
    settle();
    preload(c, 15);
    EXPECT_FALSE(c.isResident(10));
    EXPECT_EQ(c.wayOf(15), 0);
    preload(c, 16);
    EXPECT_FALSE(c.isResident(13));
    EXPECT_EQ(c.wayOf(16), 3);
    EXPECT_TRUE(c.isResident(12));
    EXPECT_TRUE(c.isResident(14));
    // Every eviction above was dirty (preloads arrive as writebacks).
    EXPECT_EQ(c.stats().writebacksOut.value(), 3u);
}

TEST_F(CacheTest, LineZeroAndHugeLineAddressesAreOrdinaryTags)
{
    // An empty way must not look like line 0, and the largest real
    // line addresses must tag like any other.
    const uint64_t huge = ~uint64_t{0} - 1;
    EXPECT_FALSE(l1_->isResident(0));
    EXPECT_FALSE(l1_->isResident(huge));
    EXPECT_EQ(l1_->wayOf(0), -1);
    EXPECT_TRUE(load(*l1_, 0));
    EXPECT_TRUE(load(*l1_, huge));
    settle();
    EXPECT_TRUE(l1_->isResident(0));
    EXPECT_TRUE(l1_->isResident(huge));
    EXPECT_TRUE(l2_->isResident(huge));
    EXPECT_EQ(l1_->stats().demandMisses.value(), 2u);
    load(*l1_, 0);
    load(*l1_, huge);
    settle();
    EXPECT_EQ(l1_->stats().demandHits.value(), 2u);
}

TEST_F(CacheTest, StatsReset)
{
    load(*l1_, 5);
    settle();
    l1_->resetStats(eq_.now());
    EXPECT_EQ(l1_->stats().demandMisses.value(), 0u);
    EXPECT_EQ(l1_->mshrs().fullStalls(), 0u);
}

// ---------------------------------------------------------------------
// Differential LRU test: the cache's tag store against a reference
// model that is nothing but the documented rule — a global use clock
// stamps every fill and touch, and the victim is the lowest stamp in
// the set, first way winning (empty ways hold stamp 0).

/** Downstream stub: records writebacks in arrival order and parks
 *  fill requests until the test delivers them. */
class RecordingLevel : public MemLevel
{
  public:
    explicit RecordingLevel(RequestPool &pool) : pool_(pool) {}

    bool
    tryAccess(MemRequest *req) override
    {
        if (req->type == ReqType::Writeback) {
            writebacks.push_back(req->lineAddr);
            pool_.free(req);
        } else {
            fills.push_back(req);
        }
        return true;
    }

    void addRetryWaiter(uint64_t, EventFn) override {}

    std::vector<uint64_t> writebacks;
    std::vector<MemRequest *> fills;

  private:
    RequestPool &pool_;
};

/**
 * Retry rounds on one cache whose fills the test delivers by hand:
 * which waiters a fill calls back, in what order, and the full stalls
 * the others are charged.
 */
class RetryRoundTest : public ::testing::Test
{
  protected:
    /** A requester loading its lines in order, like a cache draining
     *  its refused fills: on a refusal it waits for its head line, and
     *  each callback appends its id to calls_ and drains again. */
    struct Requester
    {
        char id;
        std::deque<uint64_t> lines;
    };

    RetryRoundTest()
    {
        Cache::Params p;
        p.name = "rt";
        p.sets = 16;
        p.ways = 4;
        p.accessLat = nsToTicks(2.0);
        p.mshrs = 3;
        cache_ = std::make_unique<Cache>(p, eq_, pool_);
        cache_->setDownstream(&down_);
    }

    bool
    load(uint64_t line)
    {
        MemRequest *req = pool_.alloc();
        req->lineAddr = line;
        req->type = ReqType::DemandLoad;
        const bool ok = cache_->tryAccess(req);
        if (!ok)
            pool_.free(req);
        return ok;
    }

    /** Start @p id loading @p lines. */
    Requester *
    start(char id, std::deque<uint64_t> lines)
    {
        requesters_.push_back({id, std::move(lines)});
        drain(&requesters_.back());
        return &requesters_.back();
    }

    void
    drain(Requester *r)
    {
        while (!r->lines.empty()) {
            if (!load(r->lines.front())) {
                cache_->addRetryWaiter(r->lines.front(), [this, r] {
                    calls_ += r->id;
                    drain(r);
                });
                return;
            }
            r->lines.pop_front();
        }
    }

    /** Fill the whole queue with misses on @p lines and let their
     *  requests reach the recording level. */
    void
    fillQueue(std::initializer_list<uint64_t> lines)
    {
        for (uint64_t line : lines)
            ASSERT_TRUE(load(line));
        ASSERT_TRUE(cache_->mshrs().full());
        eq_.runUntil(eq_.now() + nsToTicks(10.0));
    }

    /** Deliver the parked fill of @p line: one retry round. */
    void
    deliver(uint64_t line)
    {
        for (auto it = down_.fills.begin(); it != down_.fills.end(); ++it) {
            if ((*it)->lineAddr == line) {
                MemRequest *fill = *it;
                down_.fills.erase(it);
                cache_->handleFill(fill);
                return;
            }
        }
        FAIL() << "no fill parked for line " << line;
    }

    /** Install @p line as a clean writeback from above. */
    void
    writeback(uint64_t line)
    {
        MemRequest *wb = pool_.alloc();
        wb->lineAddr = line;
        wb->type = ReqType::Writeback;
        ASSERT_TRUE(cache_->tryAccess(wb));
    }

    uint64_t stalls() const { return cache_->mshrs().fullStalls(); }

    EventQueue eq_;
    RequestPool pool_;
    RecordingLevel down_{pool_};
    std::unique_ptr<Cache> cache_;
    std::deque<Requester> requesters_;
    std::string calls_;
};

TEST_F(RetryRoundTest, SkippedWaiterCountsOneFullStallPerRound)
{
    fillQueue({1, 2, 3});
    start('a', {5});
    start('b', {6});
    start('c', {4});
    EXPECT_EQ(stalls(), 3u);
    // Each fill frees one MSHR and the first waiter in line takes it;
    // every waiter behind it is charged the one refusal its retry
    // would have met, round after round.
    deliver(1);
    EXPECT_EQ(calls_, "a");
    EXPECT_EQ(stalls(), 5u);
    deliver(2);
    EXPECT_EQ(calls_, "ab");
    EXPECT_EQ(stalls(), 6u);
    deliver(3);
    EXPECT_EQ(calls_, "abc");
    EXPECT_EQ(stalls(), 6u);
    EXPECT_TRUE(requesters_[2].lines.empty());
}

TEST_F(RetryRoundTest, WaiterWhoseLineAnotherRequesterAllocatesProceeds)
{
    fillQueue({1, 2, 3});
    start('a', {5});
    start('b', {5});
    EXPECT_EQ(stalls(), 2u);
    // a's retry allocates line 5 and fills the queue again; b's retry
    // coalesces onto that MSHR, so b is called in the same round.
    deliver(1);
    EXPECT_EQ(calls_, "ab");
    EXPECT_EQ(stalls(), 2u);
    EXPECT_TRUE(requesters_[1].lines.empty());
    EXPECT_EQ(cache_->stats().demandMshrHits.value(), 1u);
}

TEST_F(RetryRoundTest, WaiterWhoseLineAWritebackInstallsProceeds)
{
    fillQueue({1, 2, 3});
    start('a', {5});
    start('b', {7});
    writeback(7);
    // a takes the freed MSHR; the queue is full again at b's turn, but
    // b's line is resident now, so its retry hits.
    deliver(1);
    EXPECT_EQ(calls_, "ab");
    EXPECT_EQ(stalls(), 2u);
    EXPECT_TRUE(requesters_[1].lines.empty());
    EXPECT_EQ(cache_->stats().demandHits.value(), 1u);
}

TEST_F(RetryRoundTest, WaiterOrderIsKept)
{
    fillQueue({1, 2, 3});
    start('a', {10, 13});
    start('b', {11});
    // a loads 10, is refused on 13 and re-registers during the round;
    // b, skipped after it, stays behind a's new registration exactly
    // as its own refused retry would have put it.
    deliver(1);
    EXPECT_EQ(calls_, "a");
    deliver(2);
    EXPECT_EQ(calls_, "aa");
    deliver(3);
    EXPECT_EQ(calls_, "aab");
    EXPECT_EQ(stalls(), 5u);
}

/** The reference: per-way tag, stamp and dirty bit. */
class StampModel
{
  public:
    StampModel(unsigned sets, unsigned ways, bool hashed)
        : sets_(sets), ways_(ways), hashed_(hashed), way_(sets * ways)
    {
    }

    /** Way of @p line in its set, or -1 (first match wins). */
    int
    wayOf(uint64_t line) const
    {
        const size_t base = setBase(line);
        for (unsigned w = 0; w < ways_; ++w) {
            if (way_[base + w].stamp != 0 && way_[base + w].tag == line)
                return static_cast<int>(w);
        }
        return -1;
    }

    /** A demand load or store from above. */
    void
    access(uint64_t line, bool store)
    {
        if (const int w = wayOf(line); w >= 0) {
            Way &way = way_[setBase(line) + w];
            way.stamp = ++clock_;
            way.dirty = way.dirty || store;
        } else if (auto it = inFlight_.find(line); it != inFlight_.end()) {
            it->second = it->second || store;
        } else {
            inFlight_[line] = store;
        }
    }

    /** A dirty line written back from above. */
    void
    writeback(uint64_t line)
    {
        if (const int w = wayOf(line); w >= 0) {
            Way &way = way_[setBase(line) + w];
            way.dirty = true;
            way.stamp = ++clock_;
        } else {
            insert(line, true);
        }
    }

    void
    prefetch(uint64_t line)
    {
        if (wayOf(line) < 0 && inFlight_.count(line) == 0)
            inFlight_[line] = false;
    }

    /** The fill for @p line arrives; store targets dirty it. */
    void
    fill(uint64_t line)
    {
        insert(line, false);
        // Store targets dirty the first way holding the line (a
        // writeback may have installed a copy while the fill flew).
        if (inFlight_.at(line))
            way_[setBase(line) + wayOf(line)].dirty = true;
        inFlight_.erase(line);
    }

    std::vector<uint64_t> writebacks;

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t stamp = 0;
        bool dirty = false;
    };

    size_t
    setBase(uint64_t line) const
    {
        uint64_t x = line;
        if (hashed_) {
            x ^= x >> 17;
            x *= 0xed5ad4bbac4c1b51ULL;
            x ^= x >> 28;
        }
        return static_cast<size_t>(x & (sets_ - 1)) * ways_;
    }

    void
    insert(uint64_t line, bool dirty)
    {
        const size_t base = setBase(line);
        size_t victim = base;
        for (size_t w = base + 1; w < base + ways_; ++w) {
            if (way_[w].stamp < way_[victim].stamp)
                victim = w;
        }
        if (way_[victim].stamp != 0 && way_[victim].dirty)
            writebacks.push_back(way_[victim].tag);
        way_[victim] = {line, ++clock_, dirty};
    }

    unsigned sets_;
    unsigned ways_;
    bool hashed_;
    std::vector<Way> way_;
    uint64_t clock_ = 0;
    std::map<uint64_t, bool> inFlight_;   //!< line -> a store waits
};

TEST(CacheDifferentialTest, RandomTrafficMatchesReferenceLru)
{
    uint64_t steps = 0;
    uint64_t evictions = 0;
    for (unsigned ways : {1u, 2u, 3u, 4u, 8u, 16u, 32u}) {
        for (bool hashed : {false, true}) {
            EventQueue eq;
            RequestPool pool;
            RecordingLevel down(pool);
            Cache::Params cp;
            cp.name = "diff";
            cp.sets = 4;
            cp.ways = ways;
            cp.accessLat = 0;
            cp.mshrs = 0;   // unbounded: every miss starts a fill
            cp.hashedSets = hashed;
            Cache cache(cp, eq, pool);
            cache.setDownstream(&down);
            StampModel ref(cp.sets, ways, hashed);

            // A universe of about three lines per way keeps sets
            // overflowing, so hits, misses and evictions all recur.
            const uint64_t universe = 3ULL * cp.sets * ways + 5;
            uint64_t rng = ways * 2 + (hashed ? 1 : 0);
            auto draw = [&](uint64_t n) {
                rng = schedMix64(rng);
                return rng % n;
            };
            for (int step = 0; step < 4000; ++step) {
                const uint64_t line = 1000 + draw(universe);
                const uint64_t op = draw(10);
                if (op < 3) {
                    MemRequest *req = pool.alloc();
                    req->lineAddr = line;
                    req->type = op == 0 ? ReqType::DemandStore
                                        : ReqType::DemandLoad;
                    ASSERT_TRUE(cache.tryAccess(req));
                    ref.access(line, op == 0);
                } else if (op < 5) {
                    MemRequest *wb = pool.alloc();
                    wb->lineAddr = line;
                    wb->type = ReqType::Writeback;
                    ASSERT_TRUE(cache.tryAccess(wb));
                    ref.writeback(line);
                } else if (op < 6) {
                    cache.tryPrefetch(line, ReqType::HwPrefetch, 0, 0);
                    ref.prefetch(line);
                } else {
                    // Misses leave the cache on the next event-queue
                    // pass; then deliver one parked fill, picked at
                    // random so fills land out of request order.
                    eq.runUntil(eq.now());
                    if (!down.fills.empty()) {
                        const size_t i = draw(down.fills.size());
                        MemRequest *f = down.fills[i];
                        down.fills.erase(down.fills.begin() +
                                         static_cast<ptrdiff_t>(i));
                        ref.fill(f->lineAddr);
                        cache.handleFill(f);
                    }
                }
                eq.runUntil(eq.now());
                for (uint64_t l = 1000; l < 1000 + universe; ++l) {
                    ASSERT_EQ(cache.wayOf(l), ref.wayOf(l))
                        << "ways " << ways << (hashed ? " hashed" : "")
                        << ", step " << step << ", line " << l;
                    ASSERT_EQ(cache.isResident(l), ref.wayOf(l) >= 0);
                }
                ASSERT_EQ(down.writebacks, ref.writebacks)
                    << "ways " << ways << (hashed ? " hashed" : "")
                    << ", step " << step;
                ++steps;
            }
            evictions += ref.writebacks.size();
            // Deliver what is still parked so no request leaks.
            for (MemRequest *f : down.fills)
                cache.handleFill(f);
            down.fills.clear();
            eq.runUntil(eq.now());
            EXPECT_EQ(pool.outstanding(), 0);
        }
    }
    EXPECT_EQ(steps, 7u * 2u * 4000u);
    EXPECT_GT(evictions, 1000u);
}

using CacheDeathTest = CacheTest;

TEST_F(CacheDeathTest, EmptyWayTagIsNeverALineAddress)
{
    // ~0 marks an empty way; presenting it as a line must die rather
    // than hit on an empty way.
    EXPECT_DEATH(load(*l1_, ~uint64_t{0}), "empty-way tag");
    EXPECT_DEATH(l1_->isResident(~uint64_t{0}), "empty-way tag");
}

} // namespace
} // namespace lll::sim
