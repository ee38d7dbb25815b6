/**
 * @file
 * The checked-in name registry: every metric, span and diagnostic-ID
 * string the repo emits, in one header.
 *
 * Little's-law recipes are computed from *named* counters and spans, so
 * a typo'd metric string or a drifted diagnostic ID silently corrupts
 * an analysis rather than failing it.  This header is the single
 * source of truth the source auditor (`lll audit`, src/audit) enforces:
 *
 *  - code SHOULD reference names through the constants below (a typo
 *    is then a compile error);
 *  - any metric-shaped string literal left in src/ or tools/ must
 *    match a registered name or family prefix exactly, or the auditor
 *    reports LLL-SRC-110;
 *  - any `LLL-XXX-NNN` literal must appear in kDiagIds, or the auditor
 *    reports LLL-SRC-111; a registry entry duplicated with a different
 *    meaning is LLL-SRC-112.
 *
 * ID allocation rules (DESIGN.md §15): IDs are never reused or
 * renumbered; new checks take the next free number in their group;
 * retiring a check retires its ID (the registry entry stays, marked in
 * the title).  Name constants follow the `layer.noun[_unit]` scheme;
 * counters end in `_total`, histograms in `_ns`, families end in `.`
 * and get an index or kernel name appended at runtime.
 */

#ifndef LLL_UTIL_NAMES_HH
#define LLL_UTIL_NAMES_HH

namespace lll::util::names
{

// ---------------------------------------------------------------------
// obs: the observability layer's own telemetry.
// ---------------------------------------------------------------------

/** Host-time cost of the observability layer itself (sampler snapshots,
 *  profiler tree builds); wall-clock valued, excluded from determinism
 *  comparisons. */
inline constexpr char kObsSelfOverheadNs[] = "obs.self.overhead_ns";

// ---------------------------------------------------------------------
// sim: simulator metric families (prefix + component index) and spans.
// ---------------------------------------------------------------------

inline constexpr char kSimMemctrlPrefix[] = "sim.memctrl";
inline constexpr char kSimCacheL1Prefix[] = "sim.cache.l1.";
inline constexpr char kSimCacheL2Prefix[] = "sim.cache.l2.";
inline constexpr char kSimCacheL3Prefix[] = "sim.cache.l3";
inline constexpr char kSimMshrL1Prefix[] = "sim.mshr.l1.";
inline constexpr char kSimMshrL2Prefix[] = "sim.mshr.l2.";
inline constexpr char kSimMshrL3Prefix[] = "sim.mshr.l3";
inline constexpr char kSimCorePrefix[] = "sim.core.";
inline constexpr char kSimEventqEventsPerNs[] = "sim.eventq.events_per_ns";
inline constexpr char kSimWarmupSpan[] = "sim.warmup";
inline constexpr char kSimMeasureSpan[] = "sim.measure";
inline constexpr char kSimWatchdogStall[] = "sim.watchdog.stall";

// ---------------------------------------------------------------------
// service: the batched run service (DESIGN.md §12).
// ---------------------------------------------------------------------

inline constexpr char kServiceBatchesTotal[] = "service.batches_total";
inline constexpr char kServiceRequestsTotal[] = "service.requests_total";
inline constexpr char kServiceRequestsFailedTotal[] =
    "service.requests_failed_total";
inline constexpr char kServiceUnitsTotal[] = "service.units_total";
inline constexpr char kServiceCoalescedRequestsTotal[] =
    "service.coalesced_requests_total";
inline constexpr char kServiceBatchSize[] = "service.batch_size";
inline constexpr char kServiceCacheHitsTotal[] =
    "service.cache_hits_total";
inline constexpr char kServiceCacheMissesTotal[] =
    "service.cache_misses_total";
inline constexpr char kServiceCacheEvictionsTotal[] =
    "service.cache_evictions_total";
inline constexpr char kServiceCacheSpillEvictionsTotal[] =
    "service.cache_spill_evictions_total";
inline constexpr char kServiceLatencyParseNs[] =
    "service.latency.parse_ns";
inline constexpr char kServiceLatencyCoalesceNs[] =
    "service.latency.coalesce_ns";
inline constexpr char kServiceLatencyQueueWaitNs[] =
    "service.latency.queue_wait_ns";
inline constexpr char kServiceLatencySimulateNs[] =
    "service.latency.simulate_ns";
inline constexpr char kServiceLatencyRespondNs[] =
    "service.latency.respond_ns";
inline constexpr char kServiceLatencyTotalNs[] =
    "service.latency.total_ns";

// ---------------------------------------------------------------------
// search: the design-space autotuner (DESIGN.md §17).
// ---------------------------------------------------------------------

inline constexpr char kSearchEnumeratedTotal[] =
    "search.enumerated_total";
inline constexpr char kSearchPrunedAnalyticTotal[] =
    "search.pruned_analytic_total";
inline constexpr char kSearchPrunedInfeasibleTotal[] =
    "search.pruned_infeasible_total";
inline constexpr char kSearchSimulatedTotal[] =
    "search.simulated_total";
inline constexpr char kSearchWavesTotal[] = "search.waves_total";
inline constexpr char kSearchFrontierSize[] = "search.frontier_size";

// ---------------------------------------------------------------------
// net: the socket front-end (DESIGN.md §14).
// ---------------------------------------------------------------------

inline constexpr char kNetBytesReadTotal[] = "net.bytes_read_total";
inline constexpr char kNetBytesWrittenTotal[] = "net.bytes_written_total";
inline constexpr char kNetConnsAcceptedTotal[] = "net.conns_accepted_total";
inline constexpr char kNetConnsRejectedTotal[] = "net.conns_rejected_total";
inline constexpr char kNetConnsActive[] = "net.conns_active";
inline constexpr char kNetConnsClosedTotal[] = "net.conns_closed_total";
inline constexpr char kNetConnsClosedEofTotal[] =
    "net.conns_closed_eof_total";
inline constexpr char kNetConnsClosedErrorTotal[] =
    "net.conns_closed_error_total";
inline constexpr char kNetConnsClosedIdleTotal[] =
    "net.conns_closed_idle_total";
inline constexpr char kNetConnsClosedOverflowTotal[] =
    "net.conns_closed_overflow_total";
inline constexpr char kNetConnsClosedProtocolTotal[] =
    "net.conns_closed_protocol_total";
inline constexpr char kNetConnsClosedReadTimeoutTotal[] =
    "net.conns_closed_read_timeout_total";
inline constexpr char kNetInflight[] = "net.inflight";
inline constexpr char kNetRequestsReceivedTotal[] =
    "net.requests_received_total";
inline constexpr char kNetRequestsAdmittedTotal[] =
    "net.requests_admitted_total";
inline constexpr char kNetRequestsShedTotal[] = "net.requests_shed_total";
inline constexpr char kNetRequestsAnsweredOnLoopTotal[] =
    "net.requests_answered_on_loop_total";
inline constexpr char kNetRequestsMalformedTotal[] =
    "net.requests_malformed_total";
inline constexpr char kNetRequestsFailedTotal[] =
    "net.requests_failed_total";
inline constexpr char kNetResponsesTotal[] = "net.responses_total";
inline constexpr char kNetResponsesOrphanedTotal[] =
    "net.responses_orphaned_total";
inline constexpr char kNetWatchdogTripsTotal[] =
    "net.watchdog_trips_total";
inline constexpr char kNetLatencyRequestNs[] = "net.latency.request_ns";
inline constexpr char kNetLatencyQueueWaitNs[] =
    "net.latency.queue_wait_ns";
inline constexpr char kNetLatencyHandlerNs[] = "net.latency.handler_ns";

// ---------------------------------------------------------------------
// CLI span families.
// ---------------------------------------------------------------------

/** `lll profile` root spans: kCmdSpanPrefix + subcommand. */
inline constexpr char kCmdSpanPrefix[] = "cmd.";

/**
 * Every registered metric/span name and family prefix, for the
 * auditor's literal check.  A literal matches when it equals an entry
 * byte-for-byte (families are registered as their literal prefix).
 */
inline constexpr const char *kRegisteredNames[] = {
    kObsSelfOverheadNs,
    kSimMemctrlPrefix,
    kSimCacheL1Prefix,
    kSimCacheL2Prefix,
    kSimCacheL3Prefix,
    kSimMshrL1Prefix,
    kSimMshrL2Prefix,
    kSimMshrL3Prefix,
    kSimCorePrefix,
    kSimEventqEventsPerNs,
    kSimWarmupSpan,
    kSimMeasureSpan,
    kSimWatchdogStall,
    kServiceBatchesTotal,
    kServiceRequestsTotal,
    kServiceRequestsFailedTotal,
    kServiceUnitsTotal,
    kServiceCoalescedRequestsTotal,
    kServiceBatchSize,
    kServiceCacheHitsTotal,
    kServiceCacheMissesTotal,
    kServiceCacheEvictionsTotal,
    kServiceCacheSpillEvictionsTotal,
    kServiceLatencyParseNs,
    kServiceLatencyCoalesceNs,
    kServiceLatencyQueueWaitNs,
    kServiceLatencySimulateNs,
    kServiceLatencyRespondNs,
    kServiceLatencyTotalNs,
    kSearchEnumeratedTotal,
    kSearchPrunedAnalyticTotal,
    kSearchPrunedInfeasibleTotal,
    kSearchSimulatedTotal,
    kSearchWavesTotal,
    kSearchFrontierSize,
    kNetBytesReadTotal,
    kNetBytesWrittenTotal,
    kNetConnsAcceptedTotal,
    kNetConnsRejectedTotal,
    kNetConnsActive,
    kNetConnsClosedTotal,
    kNetConnsClosedEofTotal,
    kNetConnsClosedErrorTotal,
    kNetConnsClosedIdleTotal,
    kNetConnsClosedOverflowTotal,
    kNetConnsClosedProtocolTotal,
    kNetConnsClosedReadTimeoutTotal,
    kNetInflight,
    kNetRequestsReceivedTotal,
    kNetRequestsAdmittedTotal,
    kNetRequestsShedTotal,
    kNetRequestsAnsweredOnLoopTotal,
    kNetRequestsMalformedTotal,
    kNetRequestsFailedTotal,
    kNetResponsesTotal,
    kNetResponsesOrphanedTotal,
    kNetWatchdogTripsTotal,
    kNetLatencyRequestNs,
    kNetLatencyQueueWaitNs,
    kNetLatencyHandlerNs,
    kCmdSpanPrefix,
};

// ---------------------------------------------------------------------
// Diagnostic IDs (DESIGN.md §10.1 and §15).
// ---------------------------------------------------------------------

/** One registered diagnostic ID: the ID string plus its one-line
 *  meaning.  The meaning here is authoritative — reusing an ID for a
 *  different check is the drift LLL-SRC-112 exists to catch. */
struct DiagId
{
    const char *id;
    const char *title;
};

/** Every diagnostic ID any LLL tool may emit, grouped as allocated. */
inline constexpr DiagId kDiagIds[] = {
    // sim::lintSystemParams (system/platform parameter validation).
    {"LLL-SPEC-001", "cores must be >= 1"},
    {"LLL-SPEC-002", "threadsPerCore outside the supported SMT range"},
    {"LLL-SPEC-003", "zero capacity at the requested SMT way count"},
    {"LLL-SPEC-004", "freqGHz not positive/finite"},
    {"LLL-SPEC-005", "lineBytes not a power of two >= 8"},
    {"LLL-SPEC-006", "load-queue size must be >= 1"},
    {"LLL-SPEC-007", "cache sets not a nonzero power of two"},
    {"LLL-SPEC-008", "cache ways must be >= 1"},
    {"LLL-SPEC-009", "MSHR count must be >= 1"},
    {"LLL-SPEC-010", "prefetchReserve leaves no demand MSHRs"},
    {"LLL-SPEC-011", "prefetcher enabled with zero tableSize"},
    {"LLL-SPEC-012", "prefetcher enabled with zero degree"},
    {"LLL-SPEC-013", "prefetcher enabled with zero distance"},
    {"LLL-SPEC-014", "memory controller peak BW not positive-finite"},
    {"LLL-SPEC-015", "bank service time not positive-finite"},
    {"LLL-SPEC-016", "front/back latencies not positive-finite"},
    {"LLL-SPEC-017", "bank math cannot sustain the declared peak BW"},
    {"LLL-SPEC-018", "watchdog cadence invalid"},
    {"LLL-SPEC-019", "watchdog maxStrikes invalid"},
    {"LLL-SPEC-020", "cache ways exceed the tag store's 255-way limit"},
    // sim::lintKernelSpec (kernel spec validation).
    {"LLL-KRN-001", "kernel has no streams"},
    {"LLL-KRN-002", "stream has zero footprint"},
    {"LLL-KRN-003", "stream has non-positive weight"},
    {"LLL-KRN-004", "stream has zero stride"},
    {"LLL-KRN-005", "stream reuseFraction outside [0, 1]"},
    {"LLL-KRN-006", "stream weights sum to zero"},
    {"LLL-KRN-007", "window out of range"},
    {"LLL-KRN-008", "computeCyclesPerOp out of range"},
    {"LLL-KRN-009", "workPerOp out of range"},
    {"LLL-KRN-010", "software prefetch enabled with distance 0"},
    // Platform / config assembly.
    {"LLL-PLAT-001", "platform cannot build the requested configuration"},
    // analysis::lintSpec analytic bounds (core::deriveBounds).
    {"LLL-LINT-101", "exposed window exceeds the load queue"},
    {"LLL-LINT-102", "MLP ceiling under 5% of peak BW (vacuous config)"},
    {"LLL-LINT-103", "peak BW needs more lines than the L2 MSHRQ holds"},
    {"LLL-LINT-104", "stream-mix classification and predicted ceiling"},
    {"LLL-LINT-105", "software prefetch with no prefetchable stream"},
    {"LLL-LINT-106", "footprint fits in L1; memory system unexercised"},
    {"LLL-LINT-107", "footprint fits in L2; cache-resident behaviour"},
    {"LLL-LINT-108", "declared access class disagrees with stream mix"},
    // core::Recipe reachability.
    {"LLL-RCP-001", "recipe state statically unreachable on platform"},
    {"LLL-RCP-002", "recipe never recommends an optimization"},
    // analysis::checkRunDeterminism.
    {"LLL-DET-001", "metric value differs across tie-break seeds"},
    {"LLL-DET-002", "metric set changes shape across tie-break seeds"},
    // analysis::lintProfileFile (X-Mem latency profiles).
    {"LLL-PROF-101", "latency-profile file missing or corrupt"},
    {"LLL-PROF-102", "profile bandwidth->latency curve not monotone"},
    {"LLL-PROF-103", "profile idle latency disagrees with platform"},
    {"LLL-PROF-104", "profile declared peak differs from platform table"},
    {"LLL-PROF-105", "profile platform unknown; cross-checks impossible"},
    // Reserved for unit tests exercising the Diagnostic machinery.
    {"LLL-TST-001", "reserved: test-only diagnostic"},
    {"LLL-TST-002", "reserved: test-only diagnostic"},
    // src/audit source auditor (`lll audit`, DESIGN.md §15).
    {"LLL-SRC-101", "include violates the declared layering DAG"},
    {"LLL-SRC-102", "module dependency cycle"},
    {"LLL-SRC-103", "include of a module missing from the layer table"},
    {"LLL-SRC-110", "unregistered metric/span name literal"},
    {"LLL-SRC-111", "unregistered diagnostic ID literal"},
    {"LLL-SRC-112", "diagnostic ID registered with conflicting meanings"},
    {"LLL-SRC-120", "Status/Result declaration missing [[nodiscard]]"},
    {"LLL-SRC-121", "banned API (raw clock, rand, time, exit, lll_fatal)"},
    {"LLL-SRC-122", "deprecated symbol referenced from non-test code"},
    {"LLL-SRC-123", "JSON member spelled by hand outside util::JsonWriter"},
    {"LLL-SRC-124", "command-line flag read outside a field list"},
};

} // namespace lll::util::names

#endif // LLL_UTIL_NAMES_HH
