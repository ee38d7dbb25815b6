/**
 * @file
 * L2 stream prefetcher with a bounded stream-tracking table.
 *
 * The bounded table is load-bearing for the reproduction: the paper
 * explains the small HPCG gain from 4-way SMT on KNL by the L2 prefetcher
 * only being able to track 16 streams while four hyperthreads introduce
 * 8–10 streams each.  Table pressure and the resulting coverage loss
 * emerge here rather than being scripted.
 */

#ifndef LLL_SIM_STREAM_PREFETCHER_HH
#define LLL_SIM_STREAM_PREFETCHER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace lll::sim
{

class Cache;

/**
 * Reference-prediction-table style stream prefetcher.
 *
 * observe() is called for every demand access arriving at the attached
 * cache.  Accesses within a small window of a tracked stream's head
 * confirm the stream and advance it; confirmed streams prefetch up to
 * `distance` lines ahead, issuing at most `degree` prefetches per trigger.
 */
class StreamPrefetcher
{
  public:
    struct Params
    {
        std::string name = "l2pf";
        unsigned tableSize = 16;    //!< concurrently tracked streams
        unsigned matchWindow = 4;   //!< lines around the head that confirm
        unsigned distance = 16;     //!< how far ahead of demand to run
        unsigned degree = 4;        //!< max prefetches per trigger
        unsigned trainThreshold = 2; //!< confirmations before issuing

        bool operator==(const Params &) const = default;
    };

    struct PfStats
    {
        Counter issued;
        Counter triggers;
        Counter allocations;   //!< new streams allocated (evictions proxy)

        void
        reset()
        {
            issued.reset();
            triggers.reset();
            allocations.reset();
        }
    };

    StreamPrefetcher(const Params &params, Cache &owner);

    /** Train on a demand access and possibly issue prefetches. */
    void observe(uint64_t lineAddr, int core);

    const PfStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    struct Stream
    {
        uint64_t head = 0;          //!< most recent demand line
        uint64_t issuedUpTo = 0;    //!< highest line prefetched
        int dir = 1;                //!< +1 ascending, -1 descending
        unsigned confidence = 0;
        uint64_t lastUsed = 0;
        bool valid = false;
    };

    Params params_;
    Cache &owner_;
    std::vector<Stream> table_;
    uint64_t useClock_ = 0;
    PfStats stats_;
};

} // namespace lll::sim

#endif // LLL_SIM_STREAM_PREFETCHER_HH
