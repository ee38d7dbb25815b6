/**
 * @file
 * The three phases every benchmark run executes (README.md explains
 * why each exists and which layers it loads):
 *
 *  - reproduce: the paper's 18 platform x workload walks, cold, as one
 *    SweepRunner::runStages batch at 2 jobs;
 *  - search: a cold design-space search on an empty profile store;
 *  - serve: an open-loop request stream against an in-process socket
 *    listener over a warmed ResultCache.
 *
 * Each phase has a set-up step (timed into setup_s) and a measured
 * step.  With tracing on, the measured step also runs a traced pass
 * that calls each layer directly under Tracer spans and fills the
 * per-layer metrics.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "common.hh"
#include "core/sweep.hh"
#include "net/listener.hh"

namespace perfbench
{

/** What a phase hands back to main. */
struct PhaseOut
{
    Books books;
    Metrics e2e;   //!< end-to-end metrics (untraced measurements)
    Metrics layer; //!< per-layer metrics (traced run only)
};

/** Serve traffic mix: "mixed" carries a small share of cold requests,
 *  "hits" repeats cached requests only. */
enum class ServeMix
{
    Mixed,
    Hits,
};

/** The listener, its cache and the expected answer for every line. */
class ServePhase
{
  public:
    ServeMix mix = ServeMix::Mixed;
    lll::core::ResultCache cache;
    std::unique_ptr<lll::net::Listener> listener;
    std::thread loop;
    lll::util::Status loopStatus;
    std::map<std::string, std::string> expected;
    std::vector<std::string> warmLines;

    /** Set while a traced step runs: the handler wrapper records a
     *  span per request here. */
    std::atomic<Tracer *> tracer{nullptr};

    ServePhase() = default;
    ServePhase(const ServePhase &) = delete;
    ServePhase &operator=(const ServePhase &) = delete;
};


/** Set up the reproduce phase's profile store; returns its hash. */
std::string setupReproduce(const RunConfig &cfg, Books &books);
void runReproduce(const RunConfig &cfg, Tracer *tracer, PhaseOut &out);

/** Set up the search phase's (empty) profile store. */
void setupSearch(const RunConfig &cfg, Books &books);
void runSearch(const RunConfig &cfg, Tracer *tracer, PhaseOut &out);

/** Build a started listener with a warmed cache; null on failure. */
std::unique_ptr<ServePhase> setupServe(const RunConfig &cfg, ServeMix mix,
                                       Books &books);
void runServe(ServePhase &serve, const RunConfig &cfg, Tracer *tracer,
              PhaseOut &out);
/** Stop the listener and join its threads; false when its event loop
 *  ended with an error.  A null @p serve is a no-op. */
bool stopServe(std::unique_ptr<ServePhase> &serve);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
