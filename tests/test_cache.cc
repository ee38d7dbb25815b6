/**
 * @file
 * Tests for the cache: hit/miss flows, MSHR interplay, coalescing,
 * backpressure + retry, eviction/writeback, LRU, and the prefetch
 * outcome ladder (start / covered / deferred / chained / dropped).
 */

#include <gtest/gtest.h>

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
    l1_->addRetryWaiter([&] { ++fired; });
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
