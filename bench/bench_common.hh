/**
 * @file
 * Shared plumbing for the figure, ablation and extension benches (the
 * paper tables are rendered by `lll table` / `lll reproduce`).
 */

#ifndef LLL_BENCH_BENCH_COMMON_HH
#define LLL_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.hh"
#include "obs/span.hh"
#include "platforms/platform.hh"
#include "util/status.hh"
#include "util/table.hh"
#include "workloads/workload.hh"
#include "xmem/latency_profile.hh"
#include "xmem/xmem_harness.hh"

namespace lll::bench
{

/** Fetch (measuring and caching on first use) a platform's profile.
 *  Benches have no recovery path, so a profile error exits loudly. */
inline xmem::LatencyProfile
profileFor(const platforms::Platform &platform)
{
    // Bench timing rides the obs span/timer clock (obs/timer.hh), the
    // same source the profiler and `lll bench` trials read, so a bench
    // run profiled with `lll profile` attributes consistently.
    LLL_SPAN("bench.profile[" + platform.name + "]");
    xmem::XMemHarness harness;
    util::Result<xmem::LatencyProfile> profile =
        harness.measureCachedChecked(
            platform, xmem::defaultProfilePath(platform));
    if (!profile.ok()) {
        std::fprintf(stderr, "bench: %s\n",
                     profile.status().toString().c_str());
        std::exit(1);
    }
    return profile.take();
}

/** Named-workload lookup for benches; exits on an unknown name. */
inline workloads::WorkloadPtr
workloadFor(const std::string &name)
{
    util::Result<workloads::WorkloadPtr> w = workloads::findWorkload(name);
    if (!w.ok()) {
        std::fprintf(stderr, "bench: %s\n",
                     w.status().toString().c_str());
        std::exit(1);
    }
    return w.take();
}

/** Platform lookup for benches; exits on an unknown name. */
inline platforms::Platform
platformFor(const std::string &name)
{
    util::Result<platforms::Platform> p = platforms::findPlatform(name);
    if (!p.ok()) {
        std::fprintf(stderr, "bench: %s\n",
                     p.status().toString().c_str());
        std::exit(1);
    }
    return p.take();
}

} // namespace lll::bench

#endif // LLL_BENCH_BENCH_COMMON_HH
