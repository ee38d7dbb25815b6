/**
 * @file
 * Lightweight phase spans: scoped, nesting wall-clock timers that tag a
 * region of host execution with a name, e.g. a workload phase or one
 * experiment stage.
 *
 *   {
 *       LLL_SPAN("isx.histogram");
 *       ... run the phase ...
 *   }   // duration accumulated under the current span path
 *
 * Spans nest: a span opened inside another contributes to the path
 * `outer/inner`, so exporters can show where time went per phase.  The
 * tracker aggregates by full path (count + total wall time) rather than
 * retaining every interval, keeping overhead and memory constant.
 *
 * Threading: global() is thread-local, so LLL_SPAN is race-free from
 * executor threads without any locking.  Each executor task records
 * into a task-private tracker (SpanTracker::Redirect), and the
 * executor merge()s the per-task stats into the calling thread's
 * tracker after join, under the span that was open around the fan-out,
 * in deterministic task order (the merge-after-join contract,
 * DESIGN.md §11).
 */

#ifndef LLL_OBS_SPAN_HH
#define LLL_OBS_SPAN_HH

#include <map>
#include <string>
#include <vector>

#include "obs/timer.hh"

namespace lll::obs
{

/**
 * Aggregating span stack.  Single-threaded; concurrent use goes through
 * the per-thread global() instance plus merge().
 */
class SpanTracker
{
  public:
    struct Stat
    {
        std::string path;      //!< slash-joined span names, outer first
        unsigned depth = 0;    //!< nesting depth (top level = 1)
        uint64_t count = 0;    //!< times this path was entered
        double wallNs = 0.0;   //!< total wall-clock time inside
    };

    /** Open a span named @p name nested under the current one. */
    void begin(const std::string &name);

    /** Close the innermost open span. */
    void end();

    /** Currently open spans. */
    size_t depth() const { return stack_.size(); }

    /** Aggregated per-path statistics, sorted by path. */
    std::vector<Stat> stats() const;

    /**
     * Fold per-path aggregates (a worker tracker's stats()) into this
     * tracker, nested under the innermost open span (at the root when
     * none is open): counts and wall time add, paths union.  The
     * Executor calls this on the caller after joining its workers.
     */
    void merge(const std::vector<Stat> &stats);

    /** Forget all aggregates and abandon open spans. */
    void reset();

    /** The calling thread's tracker — what LLL_SPAN uses.  Inside a
     *  Redirect scope this is the redirect target. */
    static SpanTracker &global();

    /**
     * Point global() on this thread at @p target for the scope's
     * lifetime, then restore the previous one.  Spans opened before
     * the scope keep recording into the tracker they began in, so a
     * task run inline neither sees nor disturbs its caller's open
     * spans.  Scopes nest.
     */
    class Redirect
    {
      public:
        explicit Redirect(SpanTracker &target);
        ~Redirect();

        Redirect(const Redirect &) = delete;
        Redirect &operator=(const Redirect &) = delete;

      private:
        SpanTracker *previous_;
    };

  private:
    // All span durations come from the obs layer's single wall-clock
    // source (timer.hh) so spans, the profiler and bench trials agree.
    using Clock = WallClock;

    struct Open
    {
        std::string path;
        Clock::time_point start;
    };

    struct Agg
    {
        unsigned depth = 0;
        uint64_t count = 0;
        double wallNs = 0.0;
    };

    std::vector<Open> stack_;
    std::map<std::string, Agg> agg_;
};

/**
 * RAII span handle; prefer the LLL_SPAN macro.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const std::string &name,
                        SpanTracker &tracker = SpanTracker::global())
        : tracker_(tracker)
    {
        tracker_.begin(name);
    }

    ~ScopedSpan() { tracker_.end(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanTracker &tracker_;
};

} // namespace lll::obs

#define LLL_SPAN_CAT2(a, b) a##b
#define LLL_SPAN_CAT(a, b) LLL_SPAN_CAT2(a, b)

/** Open a span for the rest of the enclosing scope. */
#define LLL_SPAN(name)                                                      \
    ::lll::obs::ScopedSpan LLL_SPAN_CAT(lll_span_, __COUNTER__)(name)

#endif // LLL_OBS_SPAN_HH
