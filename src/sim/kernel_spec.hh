/**
 * @file
 * Kernel specifications: the simulator-facing description of a routine.
 *
 * A KernelSpec characterizes the *dominant routine* of an application the
 * way the paper does: a mix of address streams (random / sequential /
 * strided, with optional temporal reuse), the compute work between memory
 * operations, and the number of independent loads the code exposes (its
 * achievable MLP before hardware limits).  The workload module builds
 * specs for the six paper applications and rewrites them under each
 * program optimization.
 */

#ifndef LLL_SIM_KERNEL_SPEC_HH
#define LLL_SIM_KERNEL_SPEC_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/fields.hh"

namespace lll::sim
{

/**
 * One address stream of a kernel.
 */
struct StreamDesc
{
    enum class Kind
    {
        Sequential,   //!< consecutive lines (unit stride)
        Strided,      //!< fixed stride in lines
        Random,       //!< uniform random within the footprint
    };

    Kind kind = Kind::Sequential;

    /** Working-set size of this stream, in cache lines (per thread unless
     *  sharedAcrossThreads). */
    uint64_t footprintLines = 1 << 20;

    /** Relative share of the kernel's memory operations. */
    double weight = 1.0;

    int strideLines = 1;

    /** Stores (write-allocate + dirty; eventually writeback traffic). */
    bool store = false;

    /** Threads of the same core address the same copy (e.g. a shared
     *  lookup table); otherwise each thread gets a private region. */
    bool sharedAcrossThreads = false;

    /** Fraction of this stream's accesses that re-touch a recently used
     *  line instead of advancing (temporal locality knob). */
    double reuseFraction = 0.0;

    /** How far back re-touches reach, in this stream's positions. */
    unsigned reuseWindow = 256;

    /** Software prefetch targets this stream when the kernel enables it. */
    bool swPrefetchable = false;
};

constexpr const char *kStreamKindNames[] = {"sequential", "strided",
                                            "random"};

constexpr std::span<const char *const>
enumNames(StreamDesc::Kind)
{
    return kStreamKindNames;
}

/** StreamDesc's field list (util/fields.hh); its order is the spec
 *  hash's mix order, so appending is the only hash-stable edit. */
template <class V, util::RecordOf<StreamDesc> R>
void
visitFields(V &v, R &s)
{
    v("kind", s.kind);
    v("footprint_lines", s.footprintLines);
    v("weight", s.weight);
    v("stride_lines", s.strideLines);
    v("store", s.store);
    v("shared_across_threads", s.sharedAcrossThreads);
    v("reuse_fraction", s.reuseFraction);
    v("reuse_window", s.reuseWindow);
    v("sw_prefetchable", s.swPrefetchable);
}

/**
 * A complete routine model.
 */
struct KernelSpec
{
    std::string name = "kernel";

    std::vector<StreamDesc> streams;

    /** Average core compute cycles preceding each memory op. */
    double computeCyclesPerOp = 1.0;

    /** Demand loads the code keeps in flight (ILP/unrolled MLP), before
     *  hardware limits (load queue, MSHRs) cap it. */
    unsigned window = 8;

    /** Logical work units per memory op; normalizes throughput across
     *  optimization variants that change the op count for the same job. */
    double workPerOp = 1.0;

    /** Software prefetch into the L2 for swPrefetchable streams. */
    bool swPrefetchL2 = false;
    unsigned swPrefetchDistance = 24;   //!< ops ahead of the demand op
    double swPrefetchOverheadCycles = 1.0;
};

/** KernelSpec's field list (util/fields.hh), in spec-hash mix order. */
template <class V, util::RecordOf<KernelSpec> R>
void
visitFields(V &v, R &k)
{
    v("name", k.name);
    v("streams", k.streams, {.lo = 1, .required = true});
    v("compute_cycles_per_op", k.computeCyclesPerOp);
    v("window", k.window);
    v("work_per_op", k.workPerOp);
    v("sw_prefetch_l2", k.swPrefetchL2);
    v("sw_prefetch_distance", k.swPrefetchDistance);
    v("sw_prefetch_overhead_cycles", k.swPrefetchOverheadCycles);
}

} // namespace lll::sim

#endif // LLL_SIM_KERNEL_SPEC_HH
