#include "sim/validator.hh"

#include <cmath>

namespace lll::sim
{

using util::DiagnosticList;
using util::ErrorCode;
using util::Status;

namespace
{

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

DiagnosticList
lintCacheParams(const Cache::Params &params, const char *what,
                bool mshrs_required)
{
    DiagnosticList out;
    if (!isPow2(params.sets)) {
        out.error("LLL-SPEC-007", what,
                  "%s: sets (%u) must be a nonzero power of two", what,
                  params.sets);
    }
    if (params.ways == 0)
        out.error("LLL-SPEC-008", what, "%s: ways must be >= 1", what);
    if (params.ways > Cache::kMaxWays) {
        out.error("LLL-SPEC-020", what,
                  "%s: ways (%u) exceed the %u-way limit of the tag "
                  "store's one-byte recency ranks",
                  what, params.ways, Cache::kMaxWays);
    }
    if (mshrs_required && params.mshrs == 0) {
        out.error("LLL-SPEC-009", what, "%s: MSHR count must be >= 1",
                  what);
    }
    if (params.mshrs != 0 && params.prefetchReserve >= params.mshrs) {
        out.error("LLL-SPEC-010", what,
                  "%s: prefetchReserve (%u) must leave demand room in "
                  "%u MSHRs",
                  what, params.prefetchReserve, params.mshrs);
    }
    return out;
}

DiagnosticList
lintSystemParams(const SystemParams &params)
{
    DiagnosticList out;
    const std::string &sub = params.name;
    if (params.cores < 1) {
        out.error("LLL-SPEC-001", sub, "cores must be >= 1 (got %d)",
                  params.cores);
    }
    if (params.threadsPerCore < 1 ||
        params.threadsPerCore >= params.smtCapacity.size()) {
        out.error("LLL-SPEC-002", sub,
                  "threadsPerCore (%u) outside supported 1..%zu",
                  params.threadsPerCore, params.smtCapacity.size() - 1);
    } else if (params.smtCapacity[params.threadsPerCore] <= 0.0) {
        out.error("LLL-SPEC-003", sub,
                  "smtCapacity[%u] is zero: platform does not support "
                  "%u-way SMT",
                  params.threadsPerCore, params.threadsPerCore);
    }
    if (!(params.freqGHz > 0.0) || !std::isfinite(params.freqGHz)) {
        out.error("LLL-SPEC-004", sub,
                  "freqGHz must be positive and finite (got %g)",
                  params.freqGHz);
    }
    if (!isPow2(params.lineBytes) || params.lineBytes < 8) {
        out.error("LLL-SPEC-005", sub,
                  "lineBytes (%u) must be a power of two >= 8",
                  params.lineBytes);
    }
    if (params.lqSize == 0)
        out.error("LLL-SPEC-006", sub, "load-queue size must be >= 1");

    out.append(lintCacheParams(params.l1, "l1", true));
    out.append(lintCacheParams(params.l2, "l2", true));
    if (params.hasL3)
        out.append(lintCacheParams(params.l3, "l3", false));

    if (params.l2PrefetcherEnabled) {
        if (params.pf.tableSize == 0) {
            out.error("LLL-SPEC-011", sub,
                      "prefetcher tableSize must be >= 1 when enabled");
        }
        if (params.pf.degree == 0) {
            out.error("LLL-SPEC-012", sub,
                      "prefetcher degree must be >= 1 when enabled");
        }
        if (params.pf.distance == 0) {
            out.error("LLL-SPEC-013", sub,
                      "prefetcher distance must be >= 1 when enabled");
        }
    }

    const MemCtrl::Params &mem = params.mem;
    if (!(mem.peakGBs > 0.0) || !std::isfinite(mem.peakGBs)) {
        out.error("LLL-SPEC-014", sub,
                  "mem.peakGBs must be positive and finite (got %g)",
                  mem.peakGBs);
    }
    if (!(mem.bankServiceNs > 0.0) || !std::isfinite(mem.bankServiceNs)) {
        out.error("LLL-SPEC-015", sub,
                  "mem.bankServiceNs must be positive and finite "
                  "(got %g)",
                  mem.bankServiceNs);
    }
    if (mem.frontLatencyNs < 0.0 || mem.backLatencyNs < 0.0 ||
        !std::isfinite(mem.frontLatencyNs) ||
        !std::isfinite(mem.backLatencyNs)) {
        out.error("LLL-SPEC-016", sub,
                  "mem front/back latencies must be finite and >= 0 "
                  "(got %g / %g)",
                  mem.frontLatencyNs, mem.backLatencyNs);
    }
    if (mem.banksOverride != 0 && mem.bankServiceNs > 0.0 &&
        std::isfinite(mem.bankServiceNs)) {
        // Peak bandwidth vs bank math: the declared peak must be
        // reachable with the overridden bank count, or the controller
        // silently caps below its own datasheet number.
        double achievable = mem.banksOverride *
                            static_cast<double>(params.lineBytes) /
                            mem.bankServiceNs;
        if (achievable < mem.peakGBs) {
            out.error("LLL-SPEC-017", sub,
                      "mem: %u banks x %u B / %g ns sustains only "
                      "%.1f GB/s, below the declared peak %.1f GB/s",
                      mem.banksOverride, params.lineBytes,
                      mem.bankServiceNs, achievable, mem.peakGBs);
        }
    }

    if (!(params.watchdog.cadenceUs > 0.0)) {
        out.error("LLL-SPEC-018", sub,
                  "watchdog cadence must be positive (got %g)",
                  params.watchdog.cadenceUs);
    }
    if (params.watchdog.maxStrikes == 0)
        out.error("LLL-SPEC-019", sub, "watchdog maxStrikes must be >= 1");
    return out;
}

DiagnosticList
lintKernelSpec(const KernelSpec &spec)
{
    DiagnosticList out;
    const std::string &sub = spec.name;
    if (spec.streams.empty()) {
        out.error("LLL-KRN-001", sub,
                  "kernel '%s': needs at least one stream",
                  spec.name.c_str());
    }
    double total_weight = 0.0;
    for (size_t i = 0; i < spec.streams.size(); ++i) {
        const StreamDesc &s = spec.streams[i];
        if (s.footprintLines == 0) {
            out.error("LLL-KRN-002", sub,
                      "kernel '%s' stream %zu: footprint must be >= 1 "
                      "line",
                      spec.name.c_str(), i);
        }
        if (!(s.weight > 0.0) || !std::isfinite(s.weight)) {
            out.error("LLL-KRN-003", sub,
                      "kernel '%s' stream %zu: weight must be positive "
                      "and finite (got %g)",
                      spec.name.c_str(), i, s.weight);
        } else {
            total_weight += s.weight;
        }
        if (s.kind == StreamDesc::Kind::Strided && s.strideLines == 0) {
            out.error("LLL-KRN-004", sub,
                      "kernel '%s' stream %zu: strided stream needs a "
                      "nonzero stride",
                      spec.name.c_str(), i);
        }
        if (s.reuseFraction < 0.0 || s.reuseFraction > 1.0 ||
            !std::isfinite(s.reuseFraction)) {
            out.error("LLL-KRN-005", sub,
                      "kernel '%s' stream %zu: reuseFraction %g outside "
                      "[0, 1]",
                      spec.name.c_str(), i, s.reuseFraction);
        }
    }
    if (!spec.streams.empty() && !(total_weight > 0.0)) {
        out.error("LLL-KRN-006", sub,
                  "kernel '%s': stream weights sum to zero",
                  spec.name.c_str());
    }
    if (spec.window == 0) {
        out.error("LLL-KRN-007", sub, "kernel '%s': window must be >= 1",
                  spec.name.c_str());
    }
    if (spec.computeCyclesPerOp < 0.0 ||
        !std::isfinite(spec.computeCyclesPerOp)) {
        out.error("LLL-KRN-008", sub,
                  "kernel '%s': computeCyclesPerOp must be finite and "
                  ">= 0 (got %g)",
                  spec.name.c_str(), spec.computeCyclesPerOp);
    }
    if (!(spec.workPerOp > 0.0) || !std::isfinite(spec.workPerOp)) {
        out.error("LLL-KRN-009", sub,
                  "kernel '%s': workPerOp must be positive and finite "
                  "(got %g)",
                  spec.name.c_str(), spec.workPerOp);
    }
    if (spec.swPrefetchL2 && spec.swPrefetchDistance == 0) {
        out.error("LLL-KRN-010", sub,
                  "kernel '%s': software prefetch needs a distance >= 1",
                  spec.name.c_str());
    }
    return out;
}

Status
validateCacheParams(const Cache::Params &params, const char *what,
                    bool mshrs_required)
{
    return lintCacheParams(params, what, mshrs_required).toStatus();
}

Status
validateSystemParams(const SystemParams &params)
{
    return lintSystemParams(params).toStatus();
}

Status
validateKernelSpec(const KernelSpec &spec)
{
    return lintKernelSpec(spec).toStatus();
}

} // namespace lll::sim
