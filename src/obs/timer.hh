/**
 * @file
 * The observability layer's one host-time source.
 *
 * Every wall-clock measurement in the repo — span trackers, the
 * profiler, per-request serve latencies — reads
 * this monotonic clock, so numbers from different subsystems are
 * directly comparable and a future clock swap (e.g. rdtsc fast path)
 * happens in exactly one place.
 */

#ifndef LLL_OBS_TIMER_HH
#define LLL_OBS_TIMER_HH

#include <chrono>
#include <cstdint>

namespace lll::obs
{

/** The monotonic host clock behind all obs wall-time measurements. */
using WallClock = std::chrono::steady_clock;

/** Nanoseconds between two WallClock points as a double. */
inline double
wallDeltaNs(WallClock::time_point start, WallClock::time_point stop)
{
    return std::chrono::duration<double, std::nano>(stop - start)
        .count();
}

/**
 * A running stopwatch started at construction.  Reading it does not
 * stop it, so one timer can mark several stage boundaries:
 *
 *   WallTimer t;
 *   ... stage 1 ...
 *   double s1 = t.elapsedNs();
 *   ... stage 2 ...
 *   double s2 = t.elapsedNs() - s1;
 */
class WallTimer
{
  public:
    WallTimer() : start_(WallClock::now()) {}

    /** Nanoseconds since construction. */
    double elapsedNs() const { return wallDeltaNs(start_, WallClock::now()); }

  private:
    WallClock::time_point start_;
};

} // namespace lll::obs

#endif // LLL_OBS_TIMER_HH
