/**
 * @file
 * Set-associative, write-back, write-allocate cache with an MSHR queue.
 *
 * The same class models L1, L2 and the optional shared LLC; what differs
 * is geometry, latency, MSHR capacity and whether a stream prefetcher is
 * attached (L2 only, matching the paper's observation that the L2
 * prefetcher is the aggressive, useful one).
 *
 * Miss flow: a demand op that misses allocates an MSHR and sends a fill
 * request downstream; further ops to the same line coalesce onto the MSHR.
 * When the MSHR queue is full the access is refused and the issuer must
 * retry — these refusals are the "MSHRQ-full stalls" the paper's Table I
 * laments most processors cannot expose.
 */

#ifndef LLL_SIM_CACHE_HH
#define LLL_SIM_CACHE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/mem_level.hh"
#include "sim/mshr_queue.hh"
#include "sim/request.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace lll::sim
{

class StreamPrefetcher;
class ThreadContext;

/** Result of presenting a prefetch to a cache. */
enum class PrefetchOutcome
{
    Started,    //!< fill in flight
    Covered,    //!< line already resident or already being fetched
    Deferred,   //!< queued; will start when an MSHR frees
    Dropped,    //!< no capacity anywhere; the line was not requested
};

/**
 * A cache level.
 */
class Cache : public MemLevel
{
  public:
    /**
     * Widest set the one-byte recency ranks can order; the validator
     * rejects wider caches (LLL-SPEC-020).
     */
    static constexpr unsigned kMaxWays = 255;

    struct Params
    {
        std::string name = "cache";
        int level = 1;              //!< 1, 2 or 3 (diagnostics only)
        unsigned sets = 64;         //!< power of two
        unsigned ways = 8;
        Tick accessLat = 1000;      //!< lookup + downstream forward latency
        unsigned mshrs = 10;        //!< 0 = unbounded (shared LLC)
        /** Prefetch allocations keep at least this many MSHRs free for
         *  demand traffic (prefetches are deferred otherwise). */
        unsigned prefetchReserve = 1;

        /** Capacity of the deferred-prefetch queue (the streamer's own
         *  request buffer); 0 disables deferral. */
        unsigned prefetchQueue = 16;

        /** Hash the set index (shared LLCs use hashed indexing to spread
         *  correlated streams; L1/L2 use plain low bits). */
        bool hashedSets = false;

        /** Unique component id ordering this cache's same-tick events
         *  against other components' (see SchedBand); assigned by
         *  System, 0 for standalone test caches. */
        unsigned schedActor = 0;

        bool operator==(const Params &) const = default;
    };

    struct CacheStats
    {
        Counter demandHits;
        Counter demandMisses;
        Counter demandMshrHits;     //!< demand coalesced onto in-flight line
        Counter prefetchFills;      //!< lines installed by any prefetch
        Counter prefetchUseful;     //!< demand hit on a prefetched line
        Counter prefetchDropped;    //!< prefetch refused (MSHRs scarce/dup)
        Counter writebacksOut;      //!< dirty evictions sent downstream
        Counter fills;

        void reset();
    };

    Cache(const Params &params, EventQueue &eq, RequestPool &pool);
    // blockBase_ points into blocks_, so a copy would alias the original.
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Wire the next level down (must be called before use). */
    void setDownstream(MemLevel *down) { down_ = down; }

    /**
     * If the next level down is also a cache, note it so prefetches can
     * be redirected there under MSHR pressure (the LLC-prefetch mode of
     * Intel's L2 streamer).
     */
    void setDownstreamCache(Cache *down) { downCache_ = down; }

    /** Attach a stream prefetcher (L2 use); observed on demand arrivals. */
    void setPrefetcher(StreamPrefetcher *pf) { prefetcher_ = pf; }

    // MemLevel interface
    bool tryAccess(MemRequest *req) override;

    /**
     * Fills call back only the waiters whose retry can proceed: the
     * MSHR queue has room, or @p lineAddr was allocated an MSHR or
     * installed since the waiter blocked.  Every other waiter is
     * charged the one full stall its refused retry would record, and
     * keeps its place in the list (DESIGN.md §16.6).
     */
    void addRetryWaiter(uint64_t lineAddr, EventFn cb) override;

    /**
     * Non-blocking prefetch insertion (software or hardware).  Under MSHR
     * pressure the prefetch is chained to the next cache level (Intel's
     * LLC-prefetch demotion) or deferred to this cache's prefetch queue,
     * which is served with priority as MSHRs free — that priority is what
     * lets a trained prefetcher overtake a flood of demand misses.
     */
    PrefetchOutcome tryPrefetch(uint64_t lineAddr, ReqType type, int core,
                                int thread);

    /** Response from downstream with the line for @p fillReq. */
    void handleFill(MemRequest *fillReq);

    const MshrQueue &mshrs() const { return mshrs_; }
    const CacheStats &stats() const { return stats_; }
    const Params &params() const { return params_; }
    unsigned schedActor() const { return params_.schedActor; }

    /**
     * Publish hit/miss/prefetch counters under @p prefix (export-time
     * snapshots; the MSHR queue registers its own sampled metrics).
     */
    void registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix,
                         std::vector<std::string> &names) const;

    /** True if @p lineAddr is currently resident (test aid). */
    bool isResident(uint64_t lineAddr) const;

    /** Way of its set holding @p lineAddr, or -1 (test aid). */
    int wayOf(uint64_t lineAddr) const;

    void resetStats(Tick now);

  private:
    /**
     * The tag of an empty way.  The line addresses the simulator
     * generates stay far below it; one that reaches it is asserted
     * against rather than hitting on an empty way.
     */
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};

    /** findWay()'s miss result. */
    static constexpr unsigned kNoWay = ~0u;

    /** Per-way flag bits (a block's flag bytes). */
    static constexpr uint8_t kDirty = 1;
    static constexpr uint8_t kPrefetched = 2;

    /** Ranks are updated in chunks of this many bytes. */
    static constexpr unsigned kRankChunk = 16;

    /** Host cache-line size the tag blocks are padded and aligned to. */
    static constexpr size_t kHostLine = 64;

    /** Tag block of @p lineAddr's set, by plain low bits or hashed
     *  (asserts the line is not kInvalidTag). */
    uint8_t *
    setBlock(uint64_t lineAddr) const
    {
        lll_assert(lineAddr != kInvalidTag, "%s: line address %#llx is "
                   "the empty-way tag", params_.name.c_str(),
                   static_cast<unsigned long long>(lineAddr));
        uint64_t x = lineAddr;
        if (params_.hashedSets) {
            x ^= x >> 17;
            x *= 0xed5ad4bbac4c1b51ULL;
            x ^= x >> 28;
        }
        return blockBase_ +
               static_cast<size_t>(x & (params_.sets - 1)) * blockBytes_;
    }

    // A block's fields: ways tags, then the ranks, then the flag
    // bytes and the filled-way count.
    static uint64_t *
    tagsOf(uint8_t *b)
    {
        return reinterpret_cast<uint64_t *>(b);
    }

    static const uint64_t *
    tagsOf(const uint8_t *b)
    {
        return reinterpret_cast<const uint64_t *>(b);
    }

    uint8_t *ranksOf(uint8_t *b) const { return b + rankOff_; }
    uint8_t *flagsOf(uint8_t *b) const { return b + flagOff_; }
    uint8_t &filledOf(uint8_t *b) const { return b[fillOff_]; }

    /** Way of block @p b holding @p lineAddr (first match), or
     *  kNoWay. */
    unsigned findWay(const uint8_t *b, uint64_t lineAddr) const;

    /** Make @p way of block @p b its set's most recently used way. */
    void touch(uint8_t *b, unsigned way) const;

    /**
     * Install @p lineAddr, evicting the LRU victim (dirty victims emit a
     * writeback downstream).
     */
    void insert(uint64_t lineAddr, bool dirty, bool prefetched);

    /** Send a fill request downstream, honouring backpressure. */
    void sendDownstream(MemRequest *fillReq);
    void drainPending();

    /** Complete every target parked on @p mshr at the current tick. */
    void completeTargets(Mshr *mshr);

    void notifyRetryWaiters();

    /** A requester refused for want of an MSHR. */
    struct RetryWaiter
    {
        uint64_t lineAddr;  //!< line of its refused head request
        /** That line was allocated an MSHR or installed since the
         *  waiter blocked, so its retry proceeds even when full. */
        bool lineArrived;
        EventFn cb;
    };

    /** Note that @p lineAddr was allocated or installed: its waiters'
     *  retries no longer need a free MSHR. */
    void
    lineArrived(uint64_t lineAddr)
    {
        for (std::vector<RetryWaiter> *list : {&retryWaiters_, &notifying_}) {
            for (RetryWaiter &w : *list) {
                if (w.lineAddr == lineAddr)
                    w.lineArrived = true;
            }
        }
    }

    Params params_;
    EventQueue &eq_;
    RequestPool &pool_;
    MemLevel *down_ = nullptr;
    Cache *downCache_ = nullptr;
    StreamPrefetcher *prefetcher_ = nullptr;

    // Tag store: one contiguous block per set, padded to whole host
    // lines, so a lookup and its LRU update touch only that block.
    // Ranks order a set's filled ways by recency, 1 (LRU) up to the
    // filled count (MRU); an empty way has rank 0, tag kInvalidTag
    // and no flags.  Ways fill in order and never empty again, so the
    // filled ways are always a prefix of the set.
    std::vector<uint64_t> blocks_;  //!< the blocks, plus alignment slack
    uint8_t *blockBase_ = nullptr;  //!< first block, kHostLine-aligned
    size_t blockBytes_ = 0;
    size_t rankOff_ = 0;    //!< ways * 8
    size_t flagOff_ = 0;    //!< rankOff_ + ways rounded up to kRankChunk
    size_t fillOff_ = 0;    //!< flagOff_ + ways

    MshrQueue mshrs_;
    CacheStats stats_;

    /** Fill requests accepted locally but refused downstream. */
    std::deque<MemRequest *> pendingDown_;
    bool retryRegistered_ = false;

    struct PendingPrefetch
    {
        uint64_t lineAddr;
        ReqType type;
        int core;
        int thread;
    };

    /** Start a prefetch fill; the caller checked capacity. */
    void startPrefetch(uint64_t lineAddr, ReqType type, int core,
                       int thread);
    void servePendingPrefetches();

    std::deque<PendingPrefetch> deferredPf_;

    std::vector<RetryWaiter> retryWaiters_;
    /** The round notifyRetryWaiters() is running; empty between rounds,
     *  its buffer handed back to retryWaiters_ so re-registering never
     *  allocates. */
    std::vector<RetryWaiter> notifying_;
};

/**
 * Priority for delivering a fill of @p lineAddr into @p cache: fills to
 * different caches order by component, same-tick fills into one cache
 * order by (mixed) line address, so LRU state never depends on pop
 * order.  Two fills for one line cannot coexist (one MSHR per line).
 */
inline uint64_t
fillPrio(const Cache &cache, uint64_t lineAddr)
{
    return schedPrio(SchedBand::Fill,
                     (static_cast<uint64_t>(cache.schedActor()) << 44) |
                         (schedMix64(lineAddr) >> 20));
}

/**
 * Priority for moving a miss of @p lineAddr from @p cache downstream on
 * behalf of (@p core, @p thread): ordered by component, then requesting
 * thread (fixed arbitration for downstream MSHRs and controller banks),
 * then line address.
 */
inline uint64_t
sendPrio(const Cache &cache, int core, int thread, uint64_t lineAddr)
{
    return schedPrio(
        SchedBand::Send,
        (static_cast<uint64_t>(cache.schedActor()) << 44) |
            ((schedThreadKey(core, thread) & 0xfff) << 32) |
            (schedMix64(lineAddr) >> 32));
}

} // namespace lll::sim

#endif // LLL_SIM_CACHE_HH
