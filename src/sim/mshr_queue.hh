/**
 * @file
 * Miss Status Handling Register queue.
 *
 * This is the structure the whole paper revolves around: the number of
 * in-flight line misses a cache can track.  The queue integrates its
 * occupancy over time so a measurement window can report the true
 * time-weighted average occupancy — the ground truth that the analyzer's
 * Little's-law estimate (Equation 2 of the paper) is validated against.
 */

#ifndef LLL_SIM_MSHR_QUEUE_HH
#define LLL_SIM_MSHR_QUEUE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "sim/request.hh"
#include "util/stats.hh"

namespace lll::sim
{

/**
 * One outstanding line miss: the line being fetched plus every request
 * (demand or prefetch) waiting for it.
 */
struct Mshr
{
    uint64_t lineAddr = 0;
    Tick allocated = 0;
    /** The type that caused allocation (prefetch MSHRs can be "claimed"
     *  by a later demand miss to the same line). */
    ReqType originType = ReqType::DemandLoad;
    /** Requests parked on this line. */
    std::vector<MemRequest *> targets;
    bool inUse = false;
};

/**
 * Fixed-capacity MSHR queue with coalescing and occupancy accounting.
 */
class MshrQueue
{
  public:
    /**
     * @param name for diagnostics
     * @param size capacity; 0 means effectively unbounded (used for the
     *             shared LLC which the paper does not model as a limiter)
     */
    MshrQueue(std::string name, unsigned size);

    bool full() const { return size_ != 0 && used_ >= size_; }
    unsigned used() const { return used_; }
    unsigned size() const { return size_; }
    const std::string &name() const { return name_; }

    /** Find the in-flight entry for @p lineAddr, or nullptr. */
    Mshr *
    lookup(uint64_t lineAddr)
    {
        const IndexSlot &s = index_[findSlot(lineAddr)];
        return s.entry == kEmptySlot ? nullptr : &entries_[s.entry];
    }

    /**
     * Allocate an entry for @p lineAddr.  Panics if full or duplicate —
     * callers must check full()/lookup() first.  Growing an unbounded
     * queue moves its entries, so no Mshr pointer may be held across
     * an allocate() on one.
     */
    Mshr *allocate(uint64_t lineAddr, ReqType origin, Tick now);

    /** Release @p mshr (its targets must already have been drained). */
    void deallocate(Mshr *mshr, Tick now);

    /** Record that an allocation was refused because the queue was full. */
    void recordFullStall() { ++fullStalls_; }

    /** Number of refused allocations since the last stats reset. */
    uint64_t fullStalls() const { return fullStalls_.value(); }

    /** Total allocations since the last stats reset. */
    uint64_t allocations() const { return allocations_.value(); }

    /** Time-weighted average occupancy over [window_start, now]. */
    double avgOccupancy(Tick window_start, Tick now) const
    {
        return occupancy_.mean(window_start, now);
    }

    /** Highest occupancy observed since the last stats reset. */
    double maxOccupancy() const { return occupancy_.max(); }

    /** Occupancy integrated over [last stats reset, now], in entry-ticks. */
    double occupancyIntegral(Tick now) const
    {
        return occupancy_.integral(now);
    }

    /**
     * Summed residency of every entry over [last stats reset, now]:
     * each entry counts from max(its allocation, the reset) until its
     * release, or until @p now while still live.  Little's law as an
     * identity: this equals occupancyIntegral(now) exactly.
     */
    uint64_t residencyTicks(Tick now) const;

    /** Restart statistics at @p now (occupancy level is retained). */
    void resetStats(Tick now);

    /**
     * Publish this queue's metrics under @p prefix (occupancy is
     * sampler-driven; the rest snapshot at export).  Registered names
     * are appended to @p names so the owner can freeze them on
     * teardown.
     */
    void registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix,
                         std::vector<std::string> &names) const;

  private:
    /**
     * One slot of the open-addressed line -> entry index (linear
     * probing, backward-shift erase, so there are no tombstones).
     */
    struct IndexSlot
    {
        uint64_t lineAddr = 0;
        uint32_t entry = kEmptySlot;
    };

    static constexpr uint32_t kEmptySlot = ~uint32_t{0};

    /** Home slot: Fibonacci hashing, so runs of lines spread out. */
    size_t
    home(uint64_t lineAddr) const
    {
        return static_cast<size_t>((lineAddr * 0x9e3779b97f4a7c15ULL) >>
                                   indexShift_);
    }

    /** The slot holding @p lineAddr, or the empty slot ending its probe
     *  (the index is at most half full, so one always exists). */
    size_t
    findSlot(uint64_t lineAddr) const
    {
        const size_t mask = index_.size() - 1;
        size_t i = home(lineAddr);
        while (index_[i].entry != kEmptySlot &&
               index_[i].lineAddr != lineAddr)
            i = (i + 1) & mask;
        return i;
    }

    /** Size the index to the smallest power of two >= 2x entries_ and
     *  re-insert every live entry. */
    void rebuildIndex();

    /** Empty slot @p i, shifting later probe-run members back. */
    void eraseSlot(size_t i);

    std::string name_;
    unsigned size_;
    unsigned used_ = 0;
    std::vector<Mshr> entries_;
    std::vector<unsigned> freeList_;
    std::vector<IndexSlot> index_;   //!< power of two, >= 2x entries_
    unsigned indexShift_ = 64;       //!< 64 - log2(index_.size())
    TimeWeightedStat occupancy_;
    Tick statsStart_ = 0;
    uint64_t residency_ = 0;         //!< released entries, since statsStart_
    Counter fullStalls_;
    Counter allocations_;
};

} // namespace lll::sim

#endif // LLL_SIM_MSHR_QUEUE_HH
