/**
 * @file
 * Tick-driven sampler: the clock owner (the simulator's event queue,
 * wired up in System::attachObservability) invokes sample() every
 * cadence ticks, and the sampler snapshots every sampled gauge in its
 * registry into bounded time-series rings.
 *
 * The sampler itself is clock-agnostic — it has no dependency on the
 * event queue, so the obs layer stays below sim in the dependency
 * order.  Whoever owns the clock schedules the periodic calls.
 */

#ifndef LLL_OBS_SAMPLER_HH
#define LLL_OBS_SAMPLER_HH

#include "obs/registry.hh"

namespace lll::obs
{

/**
 * Periodic snapshotter for one registry.
 */
class Sampler
{
  public:
    struct Params
    {
        /** Snapshot period in ticks (default 250 ns of simulated
         *  time — a 40 us measurement window yields 160 samples). */
        Tick cadence = 250 * ticksPerNs;
    };

    Sampler(MetricRegistry &registry, Params params)
        : registry_(registry), params_(params)
    {
        lll_assert(params_.cadence > 0, "sampler cadence must be positive");
    }

    explicit Sampler(MetricRegistry &registry)
        : Sampler(registry, Params())
    {
    }

    /** Take one snapshot at time @p now (no-op when disarmed). */
    void sample(Tick now);

    Tick cadence() const { return params_.cadence; }
    bool armed() const { return armed_; }

    /** Stop sampling; the periodic event chain dies off. */
    void disarm() { armed_ = false; }

    /** Snapshots taken by this sampler. */
    uint64_t taken() const { return taken_; }

    MetricRegistry &registry() { return registry_; }

  private:
    MetricRegistry &registry_;
    Params params_;
    bool armed_ = true;
    uint64_t taken_ = 0;
};

} // namespace lll::obs

#endif // LLL_OBS_SAMPLER_HH
