/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global event queue orders callbacks by (tick, priority,
 * insertion sequence).  One tick is one picosecond (see util/stats.hh),
 * which comfortably expresses core clocks from 1.4 to 2.1 GHz without
 * rounding drift over the millisecond-scale windows this project
 * simulates.
 *
 * The priority pins every same-tick ordering the model's outcome is
 * allowed to depend on.  Handlers that touch shared state (MSHR slots,
 * the core's shared issue server, controller bank queues, cache LRU
 * state) must schedule with a priority that totally orders them against
 * every other handler they can interact with — see SchedBand below.
 * Two events left at the *same* (tick, priority) thereby assert that
 * their handlers commute; nothing about the outcome may depend on which
 * pops first.
 *
 * That assertion is checkable.  For the determinism checker
 * (analysis/determinism.hh) the residual tie-break among equal
 * (tick, priority) events can be permuted with a seed: instead of the
 * raw insertion sequence, ties compare a seeded bijective mix of it.
 * Event timing and all pinned ordering are unchanged — only the pop
 * order of events that *claim* to commute moves — so any simulation
 * whose results shift under a nonzero seed has a handler whose effect
 * depends on unspecified scheduling order: a simulator race.
 *
 * Implementation (DESIGN.md §16): this queue is the simulator's inner
 * loop, so it avoids the two classic costs of std::priority_queue +
 * std::function designs.  Callbacks are stored in EventFn — a
 * small-buffer callable with no heap fallback, sized for the
 * bound-member-plus-pointer closures every component schedules — and
 * each one is built once, in place, in a cell of a chunked arena whose
 * cells never move; it runs in that cell and the cell is recycled.
 * The wheels chain the cells themselves, the far level holds cell
 * pointers and the dispatch batch trivially-copyable keys that point
 * at cells, so no sort or relink ever moves a closure.
 * The ordering structure is a two-level timing wheel over a far list,
 * following the calendar-queue literature.  Time is cut into
 * kWheelTicks-aligned slots.  The fine wheel has one bucket per tick
 * and spans two slots: the one holding now and the next.  An event
 * fewer than kWheelTicks ahead always lands there — O(1), no
 * comparisons — and an occupancy bitmap's count-trailing-zeros scan
 * fast-forwards runUntil() straight to the next busy tick.  Events
 * further out drop, unsorted, into the coarse wheel: one slot-wide
 * bucket per slot, kCoarseSlots of them, a few microseconds in all,
 * which takes memory responses and compute gaps.  When now enters a
 * slot, the coarse bucket of the slot after it moves into the fine
 * wheel whole.  Only events past the coarse horizon (the watchdog
 * tick, long housekeeping periods) wait on the far level, a vector
 * sorted by tick that rarely holds more than one cell, and move to the
 * wheels as the horizon reaches them.  Within one tick, dispatch sorts
 * the tick's bucket by (priority, tie) and invokes it as a batch,
 * re-merging whenever a callback schedules new same-tick work that
 * could order before a later priority class.
 */

#ifndef LLL_SIM_EVENT_QUEUE_HH
#define LLL_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/stats.hh"

namespace lll::sim
{

/**
 * Same-tick scheduling bands, popped in enum order within one tick.
 * Resources are released before anyone claims them: fills first, then
 * in-flight miss traffic, then thread issue slots, with bookkeeping
 * last so it observes the tick's final state.
 */
enum class SchedBand : uint64_t
{
    Fill = 1,         //!< fill delivery into a cache (frees MSHRs)
    Send = 2,         //!< miss traffic moving downstream (claims
                      //!< downstream MSHRs / controller banks)
    Thread = 3,       //!< per-thread compute-done and op-complete
    Default = 4,      //!< unclassified (plain two-argument schedule())
    Housekeeping = 5, //!< sampler and watchdog
};

/**
 * Compose a scheduling priority: the band orders event *kinds* within
 * a tick, the 56-bit key orders actors within a band (component ids,
 * thread ids, line-address hashes).  Events that may interact must end
 * up with distinct priorities; events sharing one assert commutativity.
 */
constexpr uint64_t
schedPrio(SchedBand band, uint64_t key = 0)
{
    return (static_cast<uint64_t>(band) << 56) |
           (key & ((uint64_t{1} << 56) - 1));
}

/**
 * The validator's SMT ceiling (sim/validator.cc): hardware thread ids
 * run 0..kMaxSmtWays-1, matching CoreModel::Params::smtCapacity whose
 * array has kMaxSmtWays+1 entries (index = active thread count).
 */
inline constexpr int kMaxSmtWays = 4;

/**
 * Arbitration key for events acting on behalf of one hardware thread
 * (lower key issues first at a tick: fixed-priority arbitration, like
 * a hardware arbiter).  thread -1 (a per-core agent such as the stream
 * prefetcher) sorts ahead of that core's threads.
 *
 * Packing invariant: each core owns a stride-8 run of keys and the
 * thread lands in slot thread+1 of that run, so slot 0 is the core's
 * agent (-1) and slots 1..kMaxSmtWays its hardware threads.  The
 * validator caps SMT at kMaxSmtWays ways, leaving slots 5..7 unused;
 * a wider config would silently collide with the *next* core's agent
 * slot and break pinned same-tick ordering, so the bound is asserted
 * here rather than assumed.
 */
constexpr uint64_t
schedThreadKey(int core, int thread)
{
    lll_assert(core >= -1, "schedThreadKey: core id %d below -1", core);
    lll_assert(thread >= -1 && thread < kMaxSmtWays,
               "schedThreadKey: thread id %d outside -1..%d — stride-8 "
               "packing would collide with the next core's agent slot",
               thread, kMaxSmtWays - 1);
    return (static_cast<uint64_t>(core) + 1) * 8 +
           static_cast<uint64_t>(thread + 1);
}

/**
 * splitmix64 finalizer: a bijection on uint64_t, so distinct inputs
 * keep distinct outputs while the relative order is effectively
 * random.  Used both for the determinism checker's tie-break
 * permutation and to spread line addresses across priority keys.
 */
constexpr uint64_t
schedMix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Type-erased void() callable with fixed inline storage and *no* heap
 * fallback: a closure that does not fit is a compile error, not a
 * silent allocation on the schedule hot path.
 *
 * Storage contract (DESIGN.md §16): kInlineBytes covers every closure
 * the simulator schedules — a bound member function is one object
 * pointer, the largest call sites capture two pointers, and the
 * std::function-typed chains some tests build still fit because
 * std::function itself is 32 bytes (what *it* may heap-allocate is the
 * caller's business).  Captures must be nothrow-move-constructible;
 * closures over raw pointers (the common case) are trivially copyable
 * and move as a memcpy with no destructor bookkeeping at all.
 */
class EventFn
{
  public:
    /** Inline capture budget; sized for two-pointer closures and a
     *  whole std::function, and checked by static_assert per type. */
    static constexpr size_t kInlineBytes = 32;

    EventFn() noexcept = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                          std::is_invocable_r_v<void, D &>>>
    // NOLINTNEXTLINE(bugprone-forwarding-reference-overload)
    EventFn(F &&f)
    {
        build(std::forward<F>(f));
    }

    EventFn(EventFn &&o) noexcept { stealFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            destroy();
            stealFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { destroy(); }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    /**
     * Build @p f in this empty EventFn's own storage: how the event
     * queue constructs a closure directly in its arena cell.  An
     * EventFn argument is moved in instead.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        LLL_INVARIANT(invoke_ == nullptr, "emplace into a live EventFn");
        if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "EventFn is move-only: pass it as an rvalue");
            stealFrom(f);
        } else
            build(std::forward<F>(f));
    }

    /** Destroy the held closure, leaving this EventFn empty. */
    void reset() noexcept { destroy(); }

    void
    operator()()
    {
        lll_assert(invoke_ != nullptr, "invoking an empty EventFn");
        invoke_(buf_);
    }

  private:
    template <typename F>
    void
    build(F &&f)
    {
        using D = std::decay_t<F>;
        static_assert(sizeof(D) <= kInlineBytes,
                      "closure exceeds EventFn inline storage: capture "
                      "pointers, not objects (or raise kInlineBytes)");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "closure over-aligned for EventFn inline storage");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "EventFn captures must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        invoke_ = &invokeImpl<D>;
        // Trivial closures (raw-pointer captures) keep manage_ null:
        // moves degrade to memcpy and destruction to nothing.
        if constexpr (!std::is_trivially_copyable_v<D> ||
                      !std::is_trivially_destructible_v<D>) {
            manage_ = &manageImpl<D>;
        }
    }

    template <typename D>
    static void
    invokeImpl(void *p)
    {
        (*static_cast<D *>(p))();
    }

    /** dst != null: move-construct *dst from *src; always destroy *src. */
    template <typename D>
    static void
    manageImpl(void *dst, void *src)
    {
        D *s = static_cast<D *>(src);
        if (dst != nullptr)
            ::new (dst) D(std::move(*s));
        s->~D();
    }

    void
    stealFrom(EventFn &o) noexcept
    {
        invoke_ = o.invoke_;
        manage_ = o.manage_;
        if (manage_ != nullptr)
            manage_(buf_, o.buf_);
        else if (invoke_ != nullptr)
            std::memcpy(buf_, o.buf_, kInlineBytes);
        o.invoke_ = nullptr;
        o.manage_ = nullptr;
    }

    void
    destroy() noexcept
    {
        if (manage_ != nullptr)
            manage_(nullptr, buf_);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    void (*invoke_)(void *) = nullptr;
    void (*manage_)(void *dst, void *src) = nullptr;
};

/**
 * The event queue: schedule() callbacks in the future, then run().
 *
 * Not thread safe; a System owns exactly one queue and all components
 * attached to that System share it.
 */
class EventQueue
{
  public:
    using Callback = EventFn;

    /**
     * Near-future window and slot width: events fewer than this many
     * ticks past now go straight into a fine bucket.  16384 ticks
     * (~16 ns, a few dozen core cycles) covers the skl and knl cache
     * latencies; a64fx's 37-cycle L2 hits, memory responses and
     * compute gaps land in the coarse wheel and move into the fine
     * wheel a slot ahead of their time.
     */
    static constexpr Tick kWheelTicks = 16384;

    /** Coarse wheel slots: a kCoarseSlots * kWheelTicks horizon
     *  (~4.2 µs) before events fall back to the far level. */
    static constexpr size_t kCoarseSlots = 256;

    EventQueue() : fineHead_(std::make_unique<Cell *[]>(kFineTicks)) {}

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Permute the pop order of equal-(tick, priority) events.  Seed 0
     * (default) keeps insertion order; any other value orders ties by
     * splitmix64(seq ^ seed) — a bijection, so the order is still a
     * total, deterministic one, just a different one per seed.  Must be
     * set before the first event is scheduled.
     */
    void
    setTieBreakSeed(uint64_t seed)
    {
        lll_assert(pending() == 0 && processed_ == 0,
                   "tie-break seed must be set before any event");
        tieSeed_ = seed;
    }

    uint64_t tieBreakSeed() const { return tieSeed_; }

    /**
     * Schedule @p cb to run at absolute time @p when (>= now), ordered
     * among same-tick events by @p prio (see schedPrio()).
     *
     * A callback may schedule at the tick it is running in, but only
     * at a priority >= its own class: within a tick, bands progress
     * forward (a fill may queue thread work, never another fill ahead
     * of pending fills).  That discipline is what lets dispatch batch
     * a whole priority class, and it is asserted here.
     */
    template <typename F>
    void
    schedule(Tick when, uint64_t prio, F &&cb)
    {
        lll_assert(when >= now_, "scheduling in the past (%llu < %llu)",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(now_));
        lll_assert(!dispatching_ || when != now_ || prio >= batchPrio_,
                   "same-tick schedule below the running priority class "
                   "(prio %llu < %llu): bands must progress forward "
                   "within a tick",
                   static_cast<unsigned long long>(prio),
                   static_cast<unsigned long long>(batchPrio_));
        Cell *c = allocCell();
        c->fn.emplace(std::forward<F>(cb));
        c->when = when;
        c->prio = prio;
        c->tie = tieKey(seq_++);
        if (when - now_ < kWheelTicks) {
            linkFine(c);
        } else {
            ++farRouted_;
            route(c);
        }
    }

    /** Schedule @p cb at @p when in the Default band. */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        schedule(when, schedPrio(SchedBand::Default), std::forward<F>(cb));
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&cb)
    {
        schedule(now_ + delay, std::forward<F>(cb));
    }

    /** Schedule @p cb @p delay ticks from now with priority @p prio. */
    template <typename F>
    void
    scheduleIn(Tick delay, uint64_t prio, F &&cb)
    {
        schedule(now_ + delay, prio, std::forward<F>(cb));
    }

    /**
     * Run events until the queue is empty or simulated time would pass
     * @p limit.  Events scheduled exactly at @p limit are processed.
     *
     * now_ fast-forwards: the occupancy bitmap's count-trailing-zeros
     * scan jumps straight to the next busy tick, and an empty fine
     * wheel jumps straight to the first occupied coarse slot (or the
     * far level's earliest event), so a sparse schedule costs per
     * *event*, never per idle tick.  Crossing into a new slot is the one
     * compare per event against boundary_.  Within one
     * tick, the bucket is sorted by (priority, tie) and dispatched as
     * a batch; new same-tick work landing during the batch is merged
     * in priority order before any later class runs.
     *
     * A stop latched by requestStop() — during a callback *or* between
     * runs — makes this return true immediately, once.  @p limit must
     * not be before now().
     *
     * @return true if stopped because the limit was reached or a stop
     *         was requested (events may remain), false if the queue
     *         drained.
     */
    bool
    runUntil(Tick limit)
    {
        // Time never runs backwards: the wheels are anchored at now_.
        lll_assert(limit >= now_, "runUntil limit %llu is before now %llu",
                   static_cast<unsigned long long>(limit),
                   static_cast<unsigned long long>(now_));
        if (stopRequested_) {
            // Latched while no run was in flight (e.g. a watchdog
            // between measurement windows): honour it now.
            stopRequested_ = false;
            return true;
        }
        lll_assert(!dispatching_, "runUntil is not reentrant");
        dispatching_ = true;
        for (;;) {
            if (wheelCount_ == 0) {
                // Idle fast-forward: to the first occupied coarse slot,
                // else to the far level's earliest event; advancing
                // there moves it into the fine wheel.
                Tick next;
                if (coarseCount_ != 0) {
                    next = firstCoarseStart();
                } else if (!far_.empty()) {
                    next = far_.back()->when;
                } else {
                    // Drained: nothing to move, so re-anchor the slots
                    // at the new now without a branch on the boundary.
                    now_ = std::max(now_, limit);
                    boundary_ = (now_ & ~kWheelMask) + kWheelTicks;
                    dispatching_ = false;
                    return false;
                }
                if (next > limit) {
                    moveNow(limit);
                    dispatching_ = false;
                    return true;
                }
                moveNow(next);
                continue;
            }
            const Tick tick = nextBusyTick();
            if (tick > limit) {
                moveNow(limit);
                dispatching_ = false;
                return true;
            }
            LLL_INVARIANT(tick >= now_,
                          "event-queue time ran backwards (%llu < %llu)",
                          static_cast<unsigned long long>(tick),
                          static_cast<unsigned long long>(now_));
            if (tick >= boundary_)
                advance(tick);
            now_ = tick;
            if (dispatchBucket(tick & kFineMask)) {
                stopRequested_ = false;
                dispatching_ = false;
                return true;
            }
        }
    }

    /**
     * Ask runUntil() to return early (the watchdog uses this to abort a
     * wedged run without unwinding through event callbacks).  The stop
     * latches: issued with no run in flight, the *next* runUntil()
     * returns immediately instead of the request being dropped.
     */
    void requestStop() { stopRequested_ = true; }

    /** Number of events processed so far. */
    uint64_t processed() const { return processed_; }

    /** Number of events still pending. */
    size_t
    pending() const
    {
        return wheelCount_ + coarseCount_ + far_.size();
    }

    /** Events scheduled kWheelTicks or more ahead (test aid). */
    uint64_t farRouted() const { return farRouted_; }

  private:
    static constexpr Tick kWheelMask = kWheelTicks - 1;
    static_assert((kWheelTicks & kWheelMask) == 0,
                  "slot width must be a power of two: slots are "
                  "kWheelTicks-aligned");

    /** The fine wheel spans two slots: now's and the next. */
    static constexpr Tick kFineTicks = 2 * kWheelTicks;
    static constexpr Tick kFineMask = kFineTicks - 1;

    static_assert((kCoarseSlots & (kCoarseSlots - 1)) == 0 &&
                      kCoarseSlots % 64 == 0,
                  "coarse slots index by a mask and a whole-word bitmap");

    /** Arena cells per chunk; chunks are never moved or freed early. */
    static constexpr size_t kChunkCells = 1024;

    /**
     * An arena cell: one pending event's closure, its full ordering key
     * and the next cell of its wheel bucket's chain.  The wheels are
     * chains through the cells themselves, so their storage is bounded
     * by the events pending, scheduling allocates nothing beyond the
     * cell, and moving a coarse slot into the fine wheel relinks
     * without copying.
     */
    struct Cell
    {
        // The chain link and the same-tick key lead, so a chain walk
        // reads the first 24 bytes of each cell.
        Cell *next = nullptr;
        uint64_t prio = 0;
        uint64_t tie = 0; //!< tie-break: seq, or its seeded permutation
        Tick when = 0;
        EventFn fn;
    };

    /**
     * One event of the tick being dispatched: the same-tick ordering
     * key plus its cell.  Trivially copyable, so a batch sort moves 24
     * bytes per event.
     */
    struct Key
    {
        uint64_t prio;
        uint64_t tie;
        Cell *cell;
    };

    uint64_t
    tieKey(uint64_t seq) const
    {
        return tieSeed_ == 0 ? seq : schedMix64(seq ^ tieSeed_);
    }

    /** An empty arena cell; a new chunk when every cell is in use. */
    Cell *
    allocCell()
    {
        if (freeCells_.empty()) {
            chunks_.push_back(std::make_unique<Cell[]>(kChunkCells));
            Cell *chunk = chunks_.back().get();
            for (size_t i = kChunkCells; i-- > 0;)
                freeCells_.push_back(chunk + i);
        }
        Cell *c = freeCells_.back();
        freeCells_.pop_back();
        return c;
    }

    /** Run the closure in its cell, then recycle the cell.  The cell is
     *  freed only afterwards, so whatever the callback schedules can
     *  never land on it; chunks never move, so growth is safe too. */
    void
    invoke(Cell *c)
    {
        batchPrio_ = c->prio;
        ++processed_;
        c->fn();
        c->fn.reset();
        freeCells_.push_back(c);
    }

    /** Chain @p c into the fine bucket of its tick. */
    void
    linkFine(Cell *c)
    {
        const size_t slot = c->when & kFineMask;
        c->next = fineHead_[slot];
        fineHead_[slot] = c;
        markOccupied(slot);
        ++wheelCount_;
    }

    /** First tick past the fine wheel: the start of the coarse range. */
    Tick fineEnd() const { return boundary_ + kWheelTicks; }

    /** First tick past the coarse horizon: the start of the far range. */
    Tick
    coarseEnd() const
    {
        return fineEnd() + kCoarseSlots * kWheelTicks;
    }

    static size_t
    coarseIndex(Tick when)
    {
        return static_cast<size_t>(when / kWheelTicks) & (kCoarseSlots - 1);
    }

    /** Place an event at least a window ahead (or one the far level
     *  releases) on whichever level covers its tick.  Tie keys ride
     *  along, so no level can change the total order. */
    void
    route(Cell *c)
    {
        if (c->when < fineEnd()) {
            linkFine(c);
        } else if (c->when < coarseEnd()) {
            const size_t i = coarseIndex(c->when);
            c->next = coarseHead_[i];
            coarseHead_[i] = c;
            coarseBits_[i >> 6] |= uint64_t{1} << (i & 63);
            ++coarseCount_;
        } else {
            // Latest first, so the earliest pops off the back; the
            // list is short (the watchdog tick), so insertion is too.
            far_.insert(std::upper_bound(far_.begin(), far_.end(), c,
                                         [](const Cell *a, const Cell *b) {
                                             return a->when > b->when;
                                         }),
                        c);
        }
    }

    /** Set now_ to @p t (>= now_), advancing the slots first if @p t
     *  crosses the boundary. */
    void
    moveNow(Tick t)
    {
        if (t >= boundary_)
            advance(t);
        now_ = t;
    }

    /**
     * Now is about to enter @p t's slot (t >= boundary_): the fine
     * wheel then covers up to the end of the slot after it.  Every
     * coarse slot that range now takes moves into fine buckets whole,
     * and far events inside the new coarse horizon move to the
     * wheels.  No event lies before @p t, so every moved event still
     * lies ahead of now.  Once per slot at most, so kept out of
     * runUntil()'s inlined loop.
     */
    __attribute__((noinline)) void
    advance(Tick t)
    {
        const Tick oldFineEnd = fineEnd();
        const Tick oldCoarseEnd = coarseEnd();
        boundary_ = (t & ~kWheelMask) + kWheelTicks;
        const Tick take = std::min(fineEnd(), oldCoarseEnd);
        for (Tick s = oldFineEnd; s < take && coarseCount_ != 0;
             s += kWheelTicks) {
            const size_t i = coarseIndex(s);
            for (Cell *c = coarseHead_[i]; c != nullptr;) {
                Cell *next = c->next;
                linkFine(c);
                --coarseCount_;
                c = next;
            }
            coarseHead_[i] = nullptr;
            coarseBits_[i >> 6] &= ~(uint64_t{1} << (i & 63));
        }
        const Tick horizon = coarseEnd();
        while (!far_.empty() && far_.back()->when < horizon) {
            Cell *c = far_.back();
            far_.pop_back();
            route(c);
        }
    }

    /** Start tick of the earliest occupied coarse slot (one exists):
     *  a circular count-trailing-zeros scan from the first slot past
     *  the fine wheel. */
    Tick
    firstCoarseStart() const
    {
        const Tick from = fineEnd();
        const size_t first = coarseIndex(from);
        size_t word = first >> 6;
        uint64_t bits = coarseBits_[word] & (~uint64_t{0} << (first & 63));
        for (size_t scanned = 0; bits == 0; ++scanned) {
            LLL_INVARIANT(scanned < kCoarseWords,
                          "coarse bitmap disagrees with coarseCount_");
            word = (word + 1) & (kCoarseWords - 1);
            bits = coarseBits_[word];
        }
        const size_t c =
            (word << 6) + static_cast<size_t>(__builtin_ctzll(bits));
        return from + ((c - first) & (kCoarseSlots - 1)) * kWheelTicks;
    }

    void
    markOccupied(size_t slot)
    {
        bitmap_[slot >> 6] |= uint64_t{1} << (slot & 63);
    }

    void
    markEmpty(size_t slot)
    {
        bitmap_[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
    }

    /**
     * Earliest tick with a bucketed event (the fine wheel holds at
     * least one).  Every bucketed event lies in [now, now + kFineTicks),
     * so the bitmap is scanned circularly from now's bucket and the
     * bucket's distance from there is its distance in time.
     */
    Tick
    nextBusyTick() const
    {
        const size_t from = now_ & kFineMask;
        size_t word = from >> 6;
        uint64_t bits = bitmap_[word] & (~uint64_t{0} << (from & 63));
        for (size_t scanned = 0; bits == 0; ++scanned) {
            LLL_INVARIANT(scanned < kWords,
                          "occupancy bitmap disagrees with wheelCount_");
            word = (word + 1) & (kWords - 1);
            bits = bitmap_[word];
        }
        const size_t slot =
            (word << 6) + static_cast<size_t>(__builtin_ctzll(bits));
        return now_ + ((slot - from) & kFineMask);
    }

    /** Return batch_[from..] to the tick's bucket (uninvoked work). */
    void
    spillBack(size_t from)
    {
        for (size_t i = from; i < batch_.size(); ++i)
            linkFine(batch_[i].cell);
    }

    /**
     * Dispatch every event at the current tick, sorted by (prio, tie).
     * Returns true if a callback requested a stop; the uninvoked
     * remainder is back in the bucket.
     */
    bool
    dispatchBucket(size_t slot)
    {
        Cell *&head = fineHead_[slot];
        // Lone-event fast path (the common case): no sort, no batch
        // staging.  The bucket is emptied before the callback runs,
        // since the callback may schedule into this very bucket.
        while (head->next == nullptr) {
            Cell *c = head;
            head = nullptr;
            markEmpty(slot);
            --wheelCount_;
            invoke(c);
            if (stopRequested_)
                return true;
            if (head == nullptr)
                return false;
        }
        for (;;) {
            for (Cell *c = head; c != nullptr; c = c->next)
                batch_.push_back(Key{c->prio, c->tie, c});
            head = nullptr;
            markEmpty(slot);
            wheelCount_ -= batch_.size();
            if (batch_.size() > 1) {
                // Chains run newest first; reversed, a tick's events
                // arrive mostly in order, which the sort finishes
                // fastest.  (prio, tie) keys are unique, so the order
                // is total and any sort yields the same dispatch order.
                std::reverse(batch_.begin(), batch_.end());
                std::sort(batch_.begin(), batch_.end(),
                          [](const Key &a, const Key &b) {
                              return a.prio != b.prio ? a.prio < b.prio
                                                      : a.tie < b.tie;
                          });
            }
            bool remerge = false;
            for (size_t i = 0; i < batch_.size(); ++i) {
                if (i != 0 && head != nullptr &&
                    batch_[i].prio != batch_[i - 1].prio) {
                    // A callback scheduled same-tick work; it may sort
                    // before this next class, so fold the remainder
                    // back in and re-sort everything together.
                    spillBack(i);
                    remerge = true;
                    break;
                }
                invoke(batch_[i].cell);
                if (stopRequested_) {
                    spillBack(i + 1);
                    batch_.clear();
                    return true;
                }
            }
            batch_.clear();
            // Same-tick arrivals at or above the last class run now,
            // still inside this tick.
            if (!remerge && head == nullptr)
                return false;
        }
    }

    static constexpr size_t kWords = kFineTicks / 64;
    static constexpr size_t kCoarseWords = kCoarseSlots / 64;

    /** Fine wheel: one chain head per tick bucket, kFineTicks of them. */
    std::unique_ptr<Cell *[]> fineHead_;
    uint64_t bitmap_[kWords] = {};   //!< bucket-occupancy bits
    size_t wheelCount_ = 0;          //!< events in the fine wheel
    /** Coarse wheel: one chain per slot over [fineEnd(), coarseEnd()),
     *  indexed by coarseIndex(), unsorted. */
    Cell *coarseHead_[kCoarseSlots] = {};
    uint64_t coarseBits_[kCoarseWords] = {}; //!< coarse occupancy bits
    size_t coarseCount_ = 0;         //!< events in the coarse wheel
    /** Start of the slot after now's: reaching it moves the next
     *  coarse slot into the fine wheel. */
    Tick boundary_ = kWheelTicks;
    /** Past the coarse horizon, sorted latest first. */
    std::vector<Cell *> far_;
    std::vector<Key> batch_;         //!< tick currently dispatching
    /** Closure arena: fixed-size chunks, so a cell never moves while
     *  its event is pending or running. */
    std::vector<std::unique_ptr<Cell[]>> chunks_;
    std::vector<Cell *> freeCells_;
    Tick now_ = 0;
    uint64_t seq_ = 0;
    uint64_t tieSeed_ = 0;
    uint64_t processed_ = 0;
    uint64_t farRouted_ = 0;
    uint64_t batchPrio_ = 0;         //!< class running (assert support)
    bool stopRequested_ = false;
    bool dispatching_ = false;
};

} // namespace lll::sim

#endif // LLL_SIM_EVENT_QUEUE_HH
