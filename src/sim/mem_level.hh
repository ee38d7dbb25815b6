/**
 * @file
 * Interface implemented by anything that can sit below a cache
 * (another cache level or the memory controller).
 */

#ifndef LLL_SIM_MEM_LEVEL_HH
#define LLL_SIM_MEM_LEVEL_HH

#include "sim/event_queue.hh"
#include "sim/request.hh"

namespace lll::sim
{

/**
 * Downstream side of the memory hierarchy.
 *
 * tryAccess() is the single entry point; a component that cannot accept
 * the request right now (full MSHR queue) returns false, and the caller
 * must park the request and register a retry callback.  The memory
 * controller never refuses.
 */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Present @p req to this level.  On acceptance the level owns the
     * request until it responds (fills route back via req->origin) or, for
     * writebacks, until it retires the request internally.
     *
     * @return false if the request was refused and must be retried.
     */
    virtual bool tryAccess(MemRequest *req) = 0;

    /**
     * Register a one-shot callback invoked once a retry of the refused
     * request for @p lineAddr (the waiter's head request) can proceed:
     * when capacity frees up, or when that line is allocated or
     * installed.  Callers re-register if they are refused again.
     */
    virtual void addRetryWaiter(uint64_t lineAddr, EventFn cb) = 0;
};

} // namespace lll::sim

#endif // LLL_SIM_MEM_LEVEL_HH
