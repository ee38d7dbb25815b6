/**
 * @file
 * Small helpers shared by the workload models.
 */

#ifndef LLL_WORKLOADS_TUNING_HH
#define LLL_WORKLOADS_TUNING_HH

#include "platforms/platform.hh"
#include "util/logging.hh"

namespace lll::workloads
{

/**
 * Pick a per-platform coefficient by platform id.  Workload models keep
 * their calibration knobs in one visible place with this.  Every
 * platform derives from one of the three stock ones, so another base
 * is a bug in LLL (DESIGN §9, regime 3).
 */
template <typename T>
T
pick(const platforms::Platform &p, T skl, T knl, T a64fx)
{
    const std::string base = p.baseName();
    if (base == "skl")
        return skl;
    if (base == "knl")
        return knl;
    lll_assert(base == "a64fx", "workload has no tuning for platform '%s'",
               p.name.c_str());
    return a64fx;
}

} // namespace lll::workloads

#endif // LLL_WORKLOADS_TUNING_HH
