#include "sim/stream_prefetcher.hh"

#include <cstdlib>

#include "sim/cache.hh"
#include "util/logging.hh"

namespace lll::sim
{

StreamPrefetcher::StreamPrefetcher(const Params &params, Cache &owner)
    : params_(params), owner_(owner), table_(params.tableSize)
{
    lll_assert(params_.tableSize > 0, "prefetcher needs a non-empty table");
    lll_assert(params_.distance >= 1, "prefetch distance must be >= 1");
}

void
StreamPrefetcher::observe(uint64_t lineAddr, int core)
{
    ++stats_.triggers;

    // Find a tracked stream whose head is near this access.
    Stream *match = nullptr;
    for (Stream &s : table_) {
        if (!s.valid)
            continue;
        int64_t delta = static_cast<int64_t>(lineAddr) -
                        static_cast<int64_t>(s.head);
        if (delta != 0 &&
            std::llabs(delta) <= static_cast<int64_t>(params_.matchWindow)) {
            match = &s;
            match->dir = delta > 0 ? 1 : -1;
            break;
        }
        if (delta == 0) {
            // Re-touch of the head (e.g. a coalesced miss); just refresh.
            s.lastUsed = ++useClock_;
            return;
        }
    }

    if (match == nullptr) {
        // Allocate a new candidate stream.  Prefer invalid entries, then
        // the least-confident, then LRU — trained streams that keep
        // hitting stay protected.  With more live streams than table
        // entries (e.g. 4-way SMT on KNL), a stable majority of streams
        // remains covered while the rest churn, instead of the whole
        // table thrashing; on random access patterns this path dominates
        // and no entry ever trains, so nothing is prefetched.
        Stream *victim = &table_[0];
        for (Stream &s : table_) {
            if (!s.valid) {
                victim = &s;
                break;
            }
            if (s.confidence < victim->confidence ||
                (s.confidence == victim->confidence &&
                 s.lastUsed < victim->lastUsed)) {
                victim = &s;
            }
        }
        ++stats_.allocations;
        victim->valid = true;
        victim->head = lineAddr;
        victim->issuedUpTo = lineAddr;
        victim->dir = 1;
        victim->confidence = 0;
        victim->lastUsed = ++useClock_;
        return;
    }

    match->head = lineAddr;
    match->lastUsed = ++useClock_;
    if (match->confidence < params_.trainThreshold) {
        ++match->confidence;
        match->issuedUpTo = lineAddr;
        if (match->confidence < params_.trainThreshold)
            return;
    }

    // Confirmed stream: run up to `distance` lines ahead of the demand
    // head, at most `degree` prefetches per trigger.
    uint64_t target = lineAddr + static_cast<uint64_t>(match->dir) *
                                     params_.distance;
    unsigned budget = params_.degree;
    while (budget > 0) {
        int64_t gap = (static_cast<int64_t>(target) -
                       static_cast<int64_t>(match->issuedUpTo)) * match->dir;
        if (gap <= 0)
            break;
        uint64_t next = match->issuedUpTo + match->dir;
        PrefetchOutcome out =
            owner_.tryPrefetch(next, ReqType::HwPrefetch, core, 0);
        if (out == PrefetchOutcome::Dropped) {
            // No capacity anywhere; stop and retry from the same point
            // on the next trigger instead of skipping lines.
            break;
        }
        if (out != PrefetchOutcome::Covered)
            ++stats_.issued;
        match->issuedUpTo = next;
        --budget;
    }
}

} // namespace lll::sim
