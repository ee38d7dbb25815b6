/**
 * @file
 * Tests for the MSHR queue: capacity, coalescing index, occupancy
 * integration (the paper's n_avg ground truth) and stall accounting.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "sim/mshr_queue.hh"

namespace lll::sim
{
namespace
{

TEST(MshrQueueTest, AllocateAndLookup)
{
    MshrQueue q("t", 4);
    EXPECT_EQ(q.lookup(7), nullptr);
    Mshr *m = q.allocate(7, ReqType::DemandLoad, 0);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->lineAddr, 7u);
    EXPECT_EQ(q.lookup(7), m);
    EXPECT_EQ(q.used(), 1u);
}

TEST(MshrQueueTest, FullAtCapacity)
{
    MshrQueue q("t", 2);
    q.allocate(1, ReqType::DemandLoad, 0);
    EXPECT_FALSE(q.full());
    q.allocate(2, ReqType::DemandLoad, 0);
    EXPECT_TRUE(q.full());
}

TEST(MshrQueueTest, DeallocateFrees)
{
    MshrQueue q("t", 2);
    Mshr *a = q.allocate(1, ReqType::DemandLoad, 0);
    q.allocate(2, ReqType::DemandLoad, 0);
    q.deallocate(a, 10);
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.lookup(1), nullptr);
    EXPECT_NE(q.lookup(2), nullptr);
    EXPECT_EQ(q.used(), 1u);
}

TEST(MshrQueueTest, ReallocateSameLineAfterFree)
{
    MshrQueue q("t", 2);
    Mshr *a = q.allocate(5, ReqType::DemandLoad, 0);
    q.deallocate(a, 1);
    Mshr *b = q.allocate(5, ReqType::HwPrefetch, 2);
    EXPECT_EQ(b->originType, ReqType::HwPrefetch);
    EXPECT_EQ(q.used(), 1u);
}

TEST(MshrQueueTest, UnboundedGrows)
{
    MshrQueue q("t", 0);
    for (uint64_t i = 0; i < 500; ++i)
        q.allocate(i, ReqType::DemandLoad, i);
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.used(), 500u);
    // All lines remain addressable after internal growth.
    for (uint64_t i = 0; i < 500; ++i)
        EXPECT_NE(q.lookup(i), nullptr);
}

TEST(MshrQueueTest, OccupancyIntegration)
{
    MshrQueue q("t", 8);
    // 0 until t=100, then 2 until t=200, then 1 until t=300.
    Mshr *a = q.allocate(1, ReqType::DemandLoad, 100);
    q.allocate(2, ReqType::DemandLoad, 100);
    q.deallocate(a, 200);
    // mean over [0,300] = (0*100 + 2*100 + 1*100)/300 = 1.0
    EXPECT_NEAR(q.avgOccupancy(0, 300), 1.0, 1e-9);
}

TEST(MshrQueueTest, OccupancyWindowedAfterReset)
{
    MshrQueue q("t", 8);
    q.allocate(1, ReqType::DemandLoad, 0);
    q.resetStats(1000);
    // level stays 1 across the reset
    EXPECT_NEAR(q.avgOccupancy(1000, 2000), 1.0, 1e-9);
}

TEST(MshrQueueTest, MaxOccupancy)
{
    MshrQueue q("t", 8);
    Mshr *a = q.allocate(1, ReqType::DemandLoad, 0);
    q.allocate(2, ReqType::DemandLoad, 5);
    q.allocate(3, ReqType::DemandLoad, 5);
    q.deallocate(a, 10);
    EXPECT_DOUBLE_EQ(q.maxOccupancy(), 3.0);
}

TEST(MshrQueueTest, FullStallAccounting)
{
    MshrQueue q("t", 1);
    q.allocate(1, ReqType::DemandLoad, 0);
    q.recordFullStall();
    q.recordFullStall();
    EXPECT_EQ(q.fullStalls(), 2u);
    q.resetStats(10);
    EXPECT_EQ(q.fullStalls(), 0u);
}

TEST(MshrQueueTest, AllocationCounter)
{
    MshrQueue q("t", 4);
    q.allocate(1, ReqType::DemandLoad, 0);
    q.allocate(2, ReqType::DemandLoad, 0);
    EXPECT_EQ(q.allocations(), 2u);
    q.resetStats(5);
    EXPECT_EQ(q.allocations(), 0u);
}

TEST(MshrQueueTest, TargetsParkOnEntry)
{
    MshrQueue q("t", 4);
    Mshr *m = q.allocate(9, ReqType::DemandLoad, 0);
    MemRequest r1, r2;
    m->targets.push_back(&r1);
    m->targets.push_back(&r2);
    EXPECT_EQ(q.lookup(9)->targets.size(), 2u);
    m->targets.clear();
    q.deallocate(m, 1);
}

/** Random 64-bit line addresses: distinct, and colliding in the
 *  index's home slots as often as chance allows. */
uint64_t
randomLine(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t x = state;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

TEST(MshrQueueTest, IndexFindsEverySurvivorAcrossErases)
{
    // A full 16-entry queue over random keys has probe runs (home-slot
    // collisions) everywhere; every erase shifts later run members
    // back, and every survivor must still be found at its own entry.
    MshrQueue q("t", 16);
    std::map<uint64_t, Mshr *> live;
    std::vector<uint64_t> gone;
    uint64_t rng = 1;
    uint64_t pick = 7;
    for (int step = 0; step < 20000; ++step) {
        const bool grow = live.empty() ||
                          (!q.full() && randomLine(pick) % 2 == 0);
        if (grow) {
            // Re-use a released line now and then.
            const uint64_t line = !gone.empty() && randomLine(pick) % 4 == 0
                                      ? gone.back()
                                      : randomLine(rng);
            if (!gone.empty() && line == gone.back())
                gone.pop_back();
            Mshr *m = q.allocate(line, ReqType::DemandLoad,
                                 static_cast<Tick>(step));
            live[line] = m;
        } else {
            auto it = live.begin();
            std::advance(it, static_cast<long>(randomLine(pick) %
                                               live.size()));
            q.deallocate(it->second, static_cast<Tick>(step));
            gone.push_back(it->first);
            if (gone.size() > 64)
                gone.erase(gone.begin());
            live.erase(it);
        }
        ASSERT_EQ(q.used(), live.size());
        for (const auto &[line, m] : live) {
            ASSERT_EQ(q.lookup(line), m) << "step " << step;
            ASSERT_EQ(m->lineAddr, line);
        }
        for (uint64_t line : gone)
            ASSERT_EQ(q.lookup(line), nullptr) << "step " << step;
    }
}

TEST(MshrQueueTest, UnboundedQueueGrowsPastItsReserve)
{
    // The unbounded (LLC) queue starts with 64 entries; growing past
    // them re-sizes the index, with entries live on both sides of it.
    MshrQueue q("llc", 0);
    uint64_t rng = 3;
    std::vector<uint64_t> lines;
    for (int i = 0; i < 300; ++i) {
        lines.push_back(randomLine(rng));
        q.allocate(lines.back(), ReqType::DemandLoad, 0);
    }
    // Release every other line, then grow again.
    for (size_t i = 0; i < lines.size(); i += 2)
        q.deallocate(q.lookup(lines[i]), 1);
    for (int i = 0; i < 300; ++i) {
        lines.push_back(randomLine(rng));
        q.allocate(lines.back(), ReqType::DemandLoad, 2);
    }
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.used(), 450u);
    for (size_t i = 0; i < lines.size(); ++i) {
        Mshr *m = q.lookup(lines[i]);
        if (i < 300 && i % 2 == 0) {
            EXPECT_EQ(m, nullptr);
        } else {
            ASSERT_NE(m, nullptr);
            EXPECT_EQ(m->lineAddr, lines[i]);
            EXPECT_TRUE(m->inUse);
        }
    }
    EXPECT_EQ(q.lookup(0), nullptr);
    EXPECT_EQ(q.lookup(~uint64_t{0}), nullptr);
}

TEST(MshrQueueTest, LittlesLawHoldsWithEntriesLiveAtBothWindowEdges)
{
    MshrQueue q("t", 8);
    Mshr *a = q.allocate(1, ReqType::DemandLoad, 0);
    Mshr *b = q.allocate(2, ReqType::DemandLoad, 10);
    q.resetStats(100);            // a and b are live at the window start
    q.deallocate(a, 150);
    q.allocate(3, ReqType::DemandLoad, 160);    // live at the end
    q.deallocate(b, 200);
    // Residency clipped to [100, 300]: a 50, b 100, the third 140.
    EXPECT_EQ(q.residencyTicks(300), 290u);
    EXPECT_EQ(q.occupancyIntegral(300), 290.0);
    EXPECT_DOUBLE_EQ(q.avgOccupancy(100, 300), 290.0 / 200.0);

    // A second window starts from nothing but the live entry.
    q.resetStats(300);
    EXPECT_EQ(q.residencyTicks(300), 0u);
    q.allocate(4, ReqType::DemandLoad, 350);
    EXPECT_EQ(q.residencyTicks(400), 100u + 50u);
    EXPECT_EQ(q.occupancyIntegral(400), 150.0);
}

TEST(MshrQueueTest, LittlesLawIdentityIsExactOverRandomTraffic)
{
    // Integrated occupancy == summed clipped residency at every
    // instant, across resets, on a bounded and an unbounded queue.
    for (unsigned size : {4u, 0u}) {
        MshrQueue q("t", size);
        std::vector<uint64_t> live;   // by line: growth moves entries
        uint64_t rng = 11 + size;
        Tick now = 0;
        for (int step = 0; step < 5000; ++step) {
            now += randomLine(rng) % 50;
            const uint64_t r = randomLine(rng) % 16;
            if (r == 0) {
                q.resetStats(now);
            } else if (r < 9 && !q.full()) {
                live.push_back(randomLine(rng));
                q.allocate(live.back(), ReqType::DemandLoad, now);
            } else if (!live.empty()) {
                const size_t i = randomLine(rng) % live.size();
                q.deallocate(q.lookup(live[i]), now);
                live.erase(live.begin() + static_cast<long>(i));
            }
            ASSERT_EQ(q.occupancyIntegral(now),
                      static_cast<double>(q.residencyTicks(now)))
                << "step " << step;
        }
        EXPECT_GT(q.used(), size == 0 ? 64u : 0u)
            << "the unbounded queue never outgrew its reserve";
    }
}

TEST(MshrQueueDeathTest, AllocateWhenFullPanics)
{
    MshrQueue q("t", 1);
    q.allocate(1, ReqType::DemandLoad, 0);
    EXPECT_DEATH(q.allocate(2, ReqType::DemandLoad, 0), "full");
}

TEST(MshrQueueDeathTest, DuplicateAllocatePanics)
{
    MshrQueue q("t", 4);
    q.allocate(1, ReqType::DemandLoad, 0);
    EXPECT_DEATH(q.allocate(1, ReqType::DemandLoad, 0), "duplicate");
}

TEST(MshrQueueDeathTest, DeallocateWithTargetsPanics)
{
    MshrQueue q("t", 4);
    Mshr *m = q.allocate(1, ReqType::DemandLoad, 0);
    MemRequest r;
    m->targets.push_back(&r);
    EXPECT_DEATH(q.deallocate(m, 1), "targets");
    m->targets.clear();
    q.deallocate(m, 1);
}

} // namespace
} // namespace lll::sim
