/**
 * @file
 * Tests for the DES kernel: ordering, tie-breaking, run-until limits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/request.hh"

namespace lll::sim
{
namespace
{

TEST(EventQueueTest, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.processed(), 0u);
}

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(42, [&order, i] { order.push_back(i); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(200, [&] { ++fired; });
    bool more = eq.runUntil(100);
    EXPECT_TRUE(more);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueueTest, EventAtLimitIsProcessed)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, DrainedReturnsFalseAndAdvancesToLimit)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    bool more = eq.runUntil(50);
    EXPECT_FALSE(more);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueueTest, CallbacksCanSchedule)
{
    EventQueue eq;
    std::vector<Tick> times;
    std::function<void()> chain = [&] {
        times.push_back(eq.now());
        if (times.size() < 4)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.runUntil(1000);
    EXPECT_EQ(times, (std::vector<Tick>{0, 10, 20, 30}));
}

TEST(EventQueueTest, ZeroDelaySameTickRuns)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { eq.scheduleIn(0, [&] { ++fired; }); });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, ProcessedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.runUntil(100);
    EXPECT_EQ(eq.processed(), 7u);
}

TEST(EventQueueTest, PriorityOrdersSameTickAcrossBands)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(42, schedPrio(SchedBand::Housekeeping),
                [&] { order.push_back(4); });
    eq.schedule(42, schedPrio(SchedBand::Thread, schedThreadKey(0, 0)),
                [&] { order.push_back(3); });
    eq.schedule(42, schedPrio(SchedBand::Send), [&] { order.push_back(2); });
    eq.schedule(42, schedPrio(SchedBand::Fill), [&] { order.push_back(1); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, PriorityNeverOutranksTime)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, schedPrio(SchedBand::Housekeeping),
                [&] { order.push_back(1); });
    eq.schedule(20, schedPrio(SchedBand::Fill), [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, ThreadKeysArbitrateLowestCoreAndThreadFirst)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(42, schedPrio(SchedBand::Thread, schedThreadKey(1, 0)),
                [&] { order.push_back(10); });
    eq.schedule(42, schedPrio(SchedBand::Thread, schedThreadKey(0, 1)),
                [&] { order.push_back(1); });
    eq.schedule(42, schedPrio(SchedBand::Thread, schedThreadKey(0, -1)),
                [&] { order.push_back(0); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10}));
}

TEST(EventQueueTest, TieBreakSeedPermutesOnlyEqualPriorityTies)
{
    // Within one (tick, priority) class the seeded permutation may
    // reorder; across priorities the pinned order must survive any seed.
    auto run = [](uint64_t seed) {
        EventQueue eq;
        eq.setTieBreakSeed(seed);
        std::vector<int> order;
        eq.schedule(42, schedPrio(SchedBand::Thread, 7),
                    [&] { order.push_back(100); });
        for (int i = 0; i < 6; ++i)
            eq.schedule(42, schedPrio(SchedBand::Fill),
                        [&order, i] { order.push_back(i); });
        eq.runUntil(100);
        return order;
    };

    std::vector<int> base = run(0);
    EXPECT_EQ(base.back(), 100);
    EXPECT_EQ(base, (std::vector<int>{0, 1, 2, 3, 4, 5, 100}));

    bool permuted = false;
    for (uint64_t seed : {0x9e3779b97f4a7c15ULL, 0xc0ffee42c0ffee42ULL}) {
        std::vector<int> got = run(seed);
        ASSERT_EQ(got.size(), base.size());
        EXPECT_EQ(got.back(), 100) << "priority order broken by seed";
        if (got != base)
            permuted = true;
    }
    EXPECT_TRUE(permuted) << "seeds failed to perturb equal-prio ties";
}

TEST(EventQueueTest, FarFutureEventsKeepTimeOrder)
{
    // Events beyond the near-future window wait on a later level and
    // must interleave with bucketed ones exactly by (tick, prio, seq).
    EventQueue eq;
    std::vector<Tick> times;
    const Tick far = 3 * EventQueue::kWheelTicks;
    eq.schedule(far + 5, [&] { times.push_back(eq.now()); });
    eq.schedule(7, [&] { times.push_back(eq.now()); });
    eq.schedule(far + 1, [&] { times.push_back(eq.now()); });
    eq.schedule(EventQueue::kWheelTicks + 3,
                [&] { times.push_back(eq.now()); });
    eq.runUntil(far + 100);
    EXPECT_EQ(times, (std::vector<Tick>{7, EventQueue::kWheelTicks + 3,
                                        far + 1, far + 5}));
}

TEST(EventQueueTest, FarFutureTiesKeepInsertionOrder)
{
    // The window refill must carry tie keys along: equal-(tick, prio)
    // events scheduled beyond the window still pop in insertion order.
    EventQueue eq;
    std::vector<int> order;
    const Tick when = 5 * EventQueue::kWheelTicks + 11;
    for (int i = 0; i < 5; ++i)
        eq.schedule(when, [&order, i] { order.push_back(i); });
    eq.runUntil(when);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, IdleGapsCostNothingPerTick)
{
    // A sparse schedule across many empty windows must still fire
    // every event (the window jumps, it never walks idle ticks).
    EventQueue eq;
    int fired = 0;
    for (Tick i = 0; i < 10; ++i)
        eq.schedule(i * 40 * EventQueue::kWheelTicks + 1, [&] { ++fired; });
    EXPECT_FALSE(eq.runUntil(400 * EventQueue::kWheelTicks));
    EXPECT_EQ(fired, 10);
}

TEST(EventQueueTest, StopDuringCallbackReturnsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.requestStop();
    });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    // The stop is consumed: the next run picks up where it left off.
    EXPECT_FALSE(eq.runUntil(100));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, StopLatchesBetweenRuns)
{
    // Regression: a stop issued while no run was in flight used to be
    // discarded by runUntil's entry reset; it must latch instead.
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.requestStop();
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(fired, 0) << "latched stop must win before any dispatch";
    EXPECT_EQ(eq.pending(), 1u);
    // Consumed: the following run proceeds normally.
    EXPECT_FALSE(eq.runUntil(100));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, StopMidTickPreservesRemainingEvents)
{
    // A stop in the middle of a same-tick batch may not drop the
    // uninvoked remainder, and the resumed order must be unchanged.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        eq.schedule(42, [&, i] {
            order.push_back(i);
            if (i == 2)
                eq.requestStop();
        });
    }
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_EQ(eq.now(), 42u);
    EXPECT_FALSE(eq.runUntil(100));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueueTest, SameTickBandsProgressDuringDispatch)
{
    // A fill-band handler may queue same-tick work in a later band;
    // it must run within the same tick, after the earlier bands.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(42, schedPrio(SchedBand::Fill), [&] {
        order.push_back(1);
        eq.scheduleIn(0, schedPrio(SchedBand::Thread, 3),
                      [&] { order.push_back(3); });
    });
    eq.schedule(42, schedPrio(SchedBand::Send), [&] { order.push_back(2); });
    eq.schedule(42, schedPrio(SchedBand::Housekeeping),
                [&] { order.push_back(4); });
    eq.runUntil(42);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, ChainUnderOneWindowAheadStaysInTheFineWheel)
{
    // The window slides with now: an event under kWheelTicks ahead of
    // the running one always lands in a bucket, however many window
    // widths the chain crosses.
    EventQueue eq;
    int hops = 0;
    std::function<void()> hop = [&] {
        if (++hops < 2000)
            eq.scheduleIn(EventQueue::kWheelTicks - 1 - hops % 7, hop);
    };
    eq.schedule(EventQueue::kWheelTicks - 1, hop);
    EXPECT_FALSE(eq.runUntil(4000 * EventQueue::kWheelTicks));
    EXPECT_EQ(hops, 2000);
    EXPECT_GT(eq.now(), 1900 * EventQueue::kWheelTicks);
    EXPECT_EQ(eq.farRouted(), 0u);
    // One window or more ahead is routed past the near window.
    eq.scheduleIn(EventQueue::kWheelTicks, [] {});
    EXPECT_EQ(eq.farRouted(), 1u);
}

TEST(EventQueueTest, PendingClosuresAreDestroyedWithTheQueue)
{
    // Closures live in the queue's arena; ones that never ran must
    // still be destroyed exactly once, and ones that ran right after.
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        eq.schedule(5, [token] { ++*token; });
        eq.schedule(3 * EventQueue::kWheelTicks, [token] { ++*token; });
        eq.schedule(7, [token] { ++*token; });
        EXPECT_EQ(token.use_count(), 4);
        eq.runUntil(5);
        EXPECT_EQ(*token, 1);
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------
// Differential ordering test: the queue against a reference model that
// is nothing but the documented order — (when, prio, tie), with
// same-tick arrivals merged in at the next priority-class boundary.

/** Priorities the random schedules draw from, ascending: few enough
 *  that equal-(tick, prio) ties are common, spread over every band. */
constexpr uint64_t kDiffPrios[] = {
    schedPrio(SchedBand::Fill, 0),   schedPrio(SchedBand::Fill, 1),
    schedPrio(SchedBand::Send, 0),   schedPrio(SchedBand::Send, 5),
    schedPrio(SchedBand::Thread, 9), schedPrio(SchedBand::Thread, 10),
    schedPrio(SchedBand::Default),   schedPrio(SchedBand::Housekeeping),
};
constexpr size_t kNumDiffPrios = sizeof(kDiffPrios) / sizeof(kDiffPrios[0]);

/** Cap on events one random program may schedule. */
constexpr uint64_t kDiffEventCap = 3000;

/** Deterministic random stream derived from one key. */
struct DiffRng
{
    uint64_t state;

    uint64_t
    next()
    {
        state = schedMix64(state);
        return state;
    }

    uint64_t below(uint64_t n) { return next() % n; }
};

/** One log entry: an event run (id, now) or a runUntil return. */
struct DiffRec
{
    uint64_t id;      //!< event id, or ~0 for a runUntil return
    Tick now;
    uint64_t detail;  //!< runUntil: (pending << 1) | returned-true

    bool
    operator==(const DiffRec &o) const
    {
        return id == o.id && now == o.now && detail == o.detail;
    }
};

/** The coarse wheel's reach: events further out wait on the far
 *  level. */
constexpr Tick kDiffHorizon =
    EventQueue::kCoarseSlots * EventQueue::kWheelTicks;

/**
 * First tick past the coarse wheel when the queue stands at @p now:
 * the fine wheel covers now's slot and the next, the coarse wheel the
 * kCoarseSlots after those, and an event at this tick or later is
 * routed to the far level.
 */
constexpr Tick
diffCoarseEnd(Tick now)
{
    return (now / EventQueue::kWheelTicks + 2) * EventQueue::kWheelTicks +
           kDiffHorizon;
}

/**
 * Delay of one follow-up from @p now: same tick, near, in-window, 1-4
 * windows, a slot boundary (or one tick either side of it), anywhere
 * in the coarse wheel's reach, or past it onto the far level.
 */
Tick
diffDelay(DiffRng &rng, Tick now)
{
    const Tick w = EventQueue::kWheelTicks;
    switch (rng.below(12)) {
      case 0:
      case 1:
        return 0;
      case 2:
      case 3:
        return 1 + rng.below(16);
      case 4:
      case 5:
        return 1 + rng.below(w - 1);
      case 6:
      case 7:
        return rng.below(4 * w + 1);
      case 8: {
        // A later slot's first tick, or its neighbours.
        const Tick boundary = (now / w + 1 + rng.below(4)) * w;
        return boundary - now + rng.below(3) - 1;
      }
      case 9:
      case 10:
        return rng.below(kDiffHorizon + 1);
      default:
        return kDiffHorizon + rng.below(kDiffHorizon);
    }
}

/**
 * What event @p id does when it runs — a pure function of the program
 * seed and the id, so both models replay the same program: log itself,
 * schedule up to two follow-ups (same-tick ones only in a band at or
 * above its own), and now and then request a stop.
 */
template <typename Model>
void
runScripted(Model &m, uint64_t id, size_t prioIdx)
{
    m.log.push_back({id, m.now(), 0});
    DiffRng rng{m.programSeed ^ (id * 0x9e3779b97f4a7c15ULL)};
    const uint64_t fanout = rng.below(5) < 2 ? 2 : rng.below(2);
    for (uint64_t k = 0; k < fanout && m.scheduled < kDiffEventCap; ++k) {
        const Tick delay = diffDelay(rng, m.now());
        const size_t lo = delay == 0 ? prioIdx : 0;
        const size_t p = lo + rng.below(kNumDiffPrios - lo);
        m.schedule(m.now() + delay, p, m.scheduled++);
    }
    if (rng.below(40) == 0)
        m.requestStop();
}

/** The queue under test, driven through the scripted program. */
struct RealModel
{
    RealModel(uint64_t program, uint64_t tie) : programSeed(program)
    {
        eq.setTieBreakSeed(tie);
    }

    Tick now() const { return eq.now(); }
    size_t pending() const { return eq.pending(); }
    void requestStop() { eq.requestStop(); }
    bool runUntil(Tick limit) { return eq.runUntil(limit); }

    void
    schedule(Tick when, size_t prioIdx, uint64_t id)
    {
        eq.schedule(when, kDiffPrios[prioIdx],
                    [this, id, prioIdx] { runScripted(*this, id, prioIdx); });
    }

    EventQueue eq;
    uint64_t programSeed;
    uint64_t scheduled = 0;
    std::vector<DiffRec> log;
};

/** The reference: a flat list, scanned and sorted per tick. */
struct RefModel
{
    struct Ev
    {
        Tick when;
        uint64_t prio;
        uint64_t tie;
        uint64_t id;
        size_t prioIdx;
    };

    RefModel(uint64_t program, uint64_t tie)
        : programSeed(program), tieSeed(tie)
    {
    }

    Tick now() const { return now_; }
    size_t pending() const { return pending_.size(); }
    void requestStop() { stop_ = true; }

    void
    schedule(Tick when, size_t prioIdx, uint64_t id)
    {
        const uint64_t seq = seq_++;
        pending_.push_back({when, kDiffPrios[prioIdx],
                            tieSeed == 0 ? seq : schedMix64(seq ^ tieSeed),
                            id, prioIdx});
    }

    bool
    runUntil(Tick limit)
    {
        if (stop_) {
            stop_ = false;
            return true;
        }
        for (;;) {
            if (pending_.empty()) {
                now_ = std::max(now_, limit);
                return false;
            }
            Tick t = pending_.front().when;
            for (const Ev &e : pending_)
                t = std::min(t, e.when);
            if (t > limit) {
                now_ = limit;
                return true;
            }
            now_ = t;
            if (dispatchTick()) {
                stop_ = false;
                return true;
            }
        }
    }

    /**
     * Run every event at now_ in (prio, tie) order.  Events scheduled
     * at now_ while the tick runs join at the next boundary between
     * priority classes (or when the tick's list runs out); a stop
     * returns the unrun rest to the pending list.
     */
    bool
    dispatchTick()
    {
        std::vector<Ev> batch;
        take(batch);
        size_t i = 0;
        bool ran = false;
        uint64_t last = 0;
        for (;;) {
            if (i == batch.size()) {
                if (!hasArrivals())
                    return false;
                batch.clear();
                i = 0;
                take(batch);
            } else if (ran && batch[i].prio != last && hasArrivals()) {
                batch.erase(batch.begin(),
                            batch.begin() + static_cast<ptrdiff_t>(i));
                i = 0;
                take(batch);
                ++merges;
            }
            const Ev e = batch[i++];
            last = e.prio;
            ran = true;
            runScripted(*this, e.id, e.prioIdx);
            if (stop_) {
                pending_.insert(pending_.end(),
                                batch.begin() + static_cast<ptrdiff_t>(i),
                                batch.end());
                ++stops;
                return true;
            }
        }
    }

    bool
    hasArrivals() const
    {
        return std::any_of(pending_.begin(), pending_.end(),
                           [&](const Ev &e) { return e.when == now_; });
    }

    /** Move every pending event at now_ into @p batch and sort it. */
    void
    take(std::vector<Ev> &batch)
    {
        auto at = std::stable_partition(
            pending_.begin(), pending_.end(),
            [&](const Ev &e) { return e.when != now_; });
        batch.insert(batch.end(), at, pending_.end());
        pending_.erase(at, pending_.end());
        std::sort(batch.begin(), batch.end(), [](const Ev &a, const Ev &b) {
            return a.prio != b.prio ? a.prio < b.prio : a.tie < b.tie;
        });
    }

    uint64_t programSeed;
    uint64_t tieSeed;
    uint64_t scheduled = 0;
    std::vector<DiffRec> log;
    uint64_t merges = 0;   //!< class-boundary merges (coverage check)
    uint64_t stops = 0;    //!< mid-tick stops (coverage check)

  private:
    std::vector<Ev> pending_;
    Tick now_ = 0;
    uint64_t seq_ = 0;
    bool stop_ = false;
};

/** runUntil(@p limit), logging where it returned and what remains. */
template <typename Model>
void
runLogged(Model &m, Tick limit)
{
    const bool stopped = m.runUntil(std::max(limit, m.now()));
    m.log.push_back({~uint64_t{0}, m.now(),
                     (uint64_t{m.pending()} << 1) | (stopped ? 1 : 0)});
}

/**
 * Alternate runUntil() over random limits with events scheduled from
 * outside a run, until the queue drains.
 */
template <typename Model>
void
driveRounds(Model &m, DiffRng &rng)
{
    const Tick w = EventQueue::kWheelTicks;
    Tick limit = m.now();
    for (int round = 0; round < 100000 && m.pending() > 0; ++round) {
        switch (rng.below(8)) {
          case 0:
            // Stop exactly on a slot boundary, a few slots on.
            limit = (std::max(limit, m.now()) / w + 1 + rng.below(3)) * w;
            break;
          case 1:
            // An idle jump across several coarse slots.
            limit += w * (8 + rng.below(64));
            break;
          default:
            limit += rng.below(3 * w);
        }
        runLogged(m, limit);
        if (rng.below(4) == 0 && m.scheduled < kDiffEventCap) {
            m.schedule(m.now() + (rng.below(2) == 0
                                      ? rng.below(2 * w)
                                      : diffDelay(rng, m.now())),
                       rng.below(kNumDiffPrios), m.scheduled++);
        }
    }
}

/** Seed a program with near events, then drive it to the end. */
template <typename Model>
void
driveScripted(Model &m)
{
    const Tick w = EventQueue::kWheelTicks;
    DiffRng rng{~m.programSeed};
    for (int i = 0; i < 48; ++i) {
        const Tick when = rng.below(4) == 0 ? rng.below(4 * w) : rng.below(64);
        m.schedule(when, rng.below(kNumDiffPrios), m.scheduled++);
    }
    driveRounds(m, rng);
}

/**
 * Only far events pending: the first run's idle fast-forward takes its
 * target straight from the far level (or stops short of it).
 */
template <typename Model>
void
driveFarOnlyStart(Model &m)
{
    DiffRng rng{~m.programSeed};
    const Tick far = diffCoarseEnd(m.now());
    for (int i = 0; i < 6; ++i) {
        m.schedule(far + rng.below(3 * kDiffHorizon),
                   rng.below(kNumDiffPrios), m.scheduled++);
    }
    runLogged(m, far + rng.below(4 * kDiffHorizon));
    driveRounds(m, rng);
}

/** Far events sharing (when, prio): only the tie key orders them. */
template <typename Model>
void
driveFarTies(Model &m)
{
    DiffRng rng{~m.programSeed};
    const Tick at = diffCoarseEnd(m.now()) + rng.below(kDiffHorizon);
    const size_t prio = rng.below(kNumDiffPrios);
    for (int i = 0; i < 6; ++i)
        m.schedule(at, prio, m.scheduled++);
    // A later tick holding two classes, scheduled interleaved.
    const Tick later = at + 1 + rng.below(kDiffHorizon);
    for (int i = 0; i < 8; ++i)
        m.schedule(later, i % 2 == 0 ? prio : kNumDiffPrios - 1,
                   m.scheduled++);
    driveRounds(m, rng);
}

/**
 * From outside a run, events exactly at the coarse horizon (the far
 * level's first tick), one tick short of it (the coarse wheel's last),
 * and at the horizons the next slot crossings move to.
 */
template <typename Model>
void
driveFarAtHorizon(Model &m)
{
    const Tick w = EventQueue::kWheelTicks;
    DiffRng rng{~m.programSeed};
    for (int round = 0; round < 12 && m.scheduled < kDiffEventCap;
         ++round) {
        const Tick end = diffCoarseEnd(m.now());
        for (Tick when : {end, end - 1, end + w, end + w - 1, end + 2 * w})
            m.schedule(when, rng.below(kNumDiffPrios), m.scheduled++);
        runLogged(m, m.now() + rng.below(3 * w));
    }
    driveRounds(m, rng);
}

/** Outside schedules add far events, earlier and later than the ones
 *  the far level already holds. */
template <typename Model>
void
driveFarWhileFarPending(Model &m)
{
    const Tick w = EventQueue::kWheelTicks;
    DiffRng rng{~m.programSeed};
    m.schedule(diffCoarseEnd(m.now()) + kDiffHorizon,
               rng.below(kNumDiffPrios), m.scheduled++);
    for (int round = 0; round < 16 && m.scheduled < kDiffEventCap;
         ++round) {
        m.schedule(diffCoarseEnd(m.now()) + rng.below(2 * kDiffHorizon),
                   rng.below(kNumDiffPrios), m.scheduled++);
        runLogged(m, m.now() + rng.below(8 * w));
    }
    driveRounds(m, rng);
}

/** Identical logs, or where the two models first part. */
::testing::AssertionResult
sameLog(const RealModel &real, const RefModel &ref)
{
    const size_t n = std::min(real.log.size(), ref.log.size());
    size_t first = 0;
    while (first < n && real.log[first] == ref.log[first])
        ++first;
    if (first == std::max(real.log.size(), ref.log.size()))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "first divergence at log entry " << first << " of "
           << real.log.size() << "/" << ref.log.size();
}

/** Tie seeds every differential program runs under: insertion order
 *  and two permutations. */
constexpr uint64_t kDiffTieSeeds[] = {0, 0x9e3779b97f4a7c15ULL,
                                      0xdeadbeef12345678ULL};

TEST(EventQueueDifferentialTest, RandomSchedulesMatchReferenceOrder)
{
    uint64_t merges = 0;
    uint64_t stops = 0;
    uint64_t events = 0;
    uint64_t farRouted = 0;
    for (uint64_t tie : kDiffTieSeeds) {
        for (uint64_t program = 1; program <= 12; ++program) {
            RealModel real(program, tie);
            RefModel ref(program, tie);
            driveScripted(real);
            driveScripted(ref);
            ASSERT_EQ(real.pending(), 0u);
            ASSERT_TRUE(sameLog(real, ref))
                << "program " << program << " tie seed " << tie;
            merges += ref.merges;
            stops += ref.stops;
            events += real.eq.processed();
            farRouted += real.eq.farRouted();
        }
    }
    // The programs must actually exercise the rules under test.
    EXPECT_GT(merges, 0u);
    EXPECT_GT(stops, 0u);
    EXPECT_GT(events, 36u * 2000u);
    EXPECT_GT(farRouted, events / 4);
}

TEST(EventQueueDifferentialTest, FarLevelProgramsMatchReferenceOrder)
{
    struct Program
    {
        const char *name;
        void (*real)(RealModel &);
        void (*ref)(RefModel &);
    };
    const Program programs[] = {
        {"far-only start", driveFarOnlyStart<RealModel>,
         driveFarOnlyStart<RefModel>},
        {"far ties", driveFarTies<RealModel>, driveFarTies<RefModel>},
        {"at the horizon", driveFarAtHorizon<RealModel>,
         driveFarAtHorizon<RefModel>},
        {"far while far pending", driveFarWhileFarPending<RealModel>,
         driveFarWhileFarPending<RefModel>},
    };
    for (const Program &p : programs) {
        for (uint64_t tie : kDiffTieSeeds) {
            for (uint64_t seed = 1; seed <= 4; ++seed) {
                RealModel real(seed, tie);
                RefModel ref(seed, tie);
                p.real(real);
                p.ref(ref);
                ASSERT_EQ(real.pending(), 0u);
                ASSERT_TRUE(sameLog(real, ref))
                    << p.name << " program " << seed << " tie seed " << tie;
                EXPECT_GT(real.eq.farRouted(), 0u) << p.name;
            }
        }
    }
}

TEST(EventQueueDeathTest, SeedAfterFirstEventPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    EXPECT_DEATH(eq.setTieBreakSeed(1), "before any event");
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.runUntil(50);
    EXPECT_DEATH(eq.schedule(10, [] {}), "past");
}

TEST(EventQueueDeathTest, RunUntilBeforeNowPanics)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.schedule(60, [] {});
    eq.runUntil(50);
    EXPECT_DEATH(eq.runUntil(49), "before now");
}

TEST(EventQueueDeathTest, ThreadKeyBeyondSmtCeilingPanics)
{
    // thread == kMaxSmtWays would land in the next core's stride-8 run
    // (slot 0 is the agent, 1..kMaxSmtWays the hw threads); the packing
    // bound must trip, not silently collide.
    EXPECT_EQ(schedThreadKey(0, kMaxSmtWays - 1),
              8 + static_cast<uint64_t>(kMaxSmtWays));
    EXPECT_DEATH(schedThreadKey(0, kMaxSmtWays), "collide");
    EXPECT_DEATH(schedThreadKey(0, -2), "outside");
    EXPECT_DEATH(schedThreadKey(-2, 0), "below -1");
}

// --- request pool -------------------------------------------------------

TEST(RequestPoolTest, AllocGivesZeroedRequest)
{
    RequestPool pool;
    MemRequest *a = pool.alloc();
    a->lineAddr = 99;
    a->core = 3;
    pool.free(a);
    MemRequest *b = pool.alloc();
    EXPECT_EQ(b->lineAddr, 0u);
    EXPECT_EQ(b->core, -1);
    pool.free(b);
}

TEST(RequestPoolTest, ReallocatedRequestIsFullyRezeroed)
{
    // Regression: a freed request with stale routing pointers and a
    // dirty issue tick must come back indistinguishable from fresh —
    // a leaked origin would route a fill into a dead cache.
    RequestPool pool;
    MemRequest *a = pool.alloc();
    a->lineAddr = 0xdeadbeef;
    a->type = ReqType::Writeback;
    a->core = 7;
    a->thread = 3;
    a->issued = 123456789;
    a->origin = reinterpret_cast<Cache *>(0x1);
    a->requester = reinterpret_cast<ThreadContext *>(0x2);
    pool.free(a);

    MemRequest *b = pool.alloc();
    ASSERT_EQ(a, b) << "free list should hand the same storage back";
    EXPECT_EQ(b->lineAddr, 0u);
    EXPECT_EQ(b->type, ReqType::DemandLoad);
    EXPECT_EQ(b->core, -1);
    EXPECT_EQ(b->thread, -1);
    EXPECT_EQ(b->issued, 0u);
    EXPECT_EQ(b->origin, nullptr);
    EXPECT_EQ(b->requester, nullptr);
    pool.free(b);
}

TEST(RequestPoolTest, ReusesFreedRequests)
{
    RequestPool pool;
    MemRequest *a = pool.alloc();
    pool.free(a);
    MemRequest *b = pool.alloc();
    EXPECT_EQ(a, b);
    pool.free(b);
}

TEST(RequestPoolTest, OutstandingTracksBalance)
{
    RequestPool pool;
    EXPECT_EQ(pool.outstanding(), 0);
    MemRequest *a = pool.alloc();
    MemRequest *b = pool.alloc();
    EXPECT_EQ(pool.outstanding(), 2);
    pool.free(a);
    EXPECT_EQ(pool.outstanding(), 1);
    pool.free(b);
    EXPECT_EQ(pool.outstanding(), 0);
}

TEST(RequestTest, TypeNamesAndDemandPredicate)
{
    EXPECT_STREQ(reqTypeName(ReqType::DemandLoad), "DemandLoad");
    EXPECT_STREQ(reqTypeName(ReqType::Writeback), "Writeback");
    EXPECT_TRUE(isDemand(ReqType::DemandLoad));
    EXPECT_TRUE(isDemand(ReqType::DemandStore));
    EXPECT_FALSE(isDemand(ReqType::HwPrefetch));
    EXPECT_FALSE(isDemand(ReqType::SwPrefetch));
}

} // namespace
} // namespace lll::sim
