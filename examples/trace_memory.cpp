/**
 * @file
 * Memory-trace inspection: attach a RequestTracer to the memory
 * controller, run a workload, and summarize what reached memory —
 * request mix, spatial locality, and the latency distribution
 * percentiles.  Optionally dumps the trace window as CSV.
 *
 * The locality score makes the paper's random-vs-streaming
 * classification visible at the request level: ISx scores near 0,
 * HPCG near 1.
 *
 *   ./trace_memory [workload] [platform] [csv-path] [json-path]
 *
 * csv-path receives the trace window (RequestTracer::toCsv);
 * json-path receives the full obs export — sampled time series,
 * counters and the trace window spliced in as a "trace" section.
 */

#include <cstdio>

#include "lll/lll.hh"
#include "sim/tracer.hh"

using namespace lll;

int
main(int argc, char **argv)
{
    util::Result<workloads::WorkloadPtr> work_r =
        workloads::findWorkload(argc > 1 ? argv[1] : "isx");
    util::Result<platforms::Platform> plat_r =
        platforms::findPlatform(argc > 2 ? argv[2] : "skl");
    if (!work_r.ok() || !plat_r.ok()) {
        const util::Status &bad =
            work_r.ok() ? plat_r.status() : work_r.status();
        std::fprintf(stderr, "trace_memory: %s\n",
                     bad.toString().c_str());
        return 1;
    }
    workloads::WorkloadPtr work = work_r.take();
    platforms::Platform plat = plat_r.take();

    sim::KernelSpec spec = work->spec(plat, workloads::OptSet{});
    sim::SystemParams sp = plat.sysParams(plat.totalCores, 1);
    // Declared before the System: its destructor freezes gauges into
    // the registry, so the registry must outlive it.
    obs::MetricRegistry registry;
    sim::RequestTracer tracer(1 << 15);
    sim::System sys(sp, spec);

    sys.mem().setTracer(&tracer);
    sys.attachObservability(registry);
    util::Result<sim::RunResult> run =
        sys.runChecked(work->warmupUs(), work->measureUs());
    if (!run.ok()) {
        std::fprintf(stderr, "trace_memory: %s\n",
                     run.status().toString().c_str());
        return 1;
    }
    const sim::RunResult &r = *run;

    uint64_t demand = 0, hwpf = 0, swpf = 0, wb = 0;
    for (const sim::RequestTracer::Event &ev : tracer.events()) {
        switch (ev.type) {
          case sim::ReqType::HwPrefetch: ++hwpf; break;
          case sim::ReqType::SwPrefetch: ++swpf; break;
          case sim::ReqType::Writeback:  ++wb; break;
          default:                       ++demand; break;
        }
    }

    std::printf("Memory trace: %s on %s\n", work->routine().c_str(),
                plat.name.c_str());
    std::printf("  recorded            : %zu events (of %llu total)\n",
                tracer.size(),
                static_cast<unsigned long long>(tracer.total()));
    std::printf("  mix                 : %llu demand, %llu hw-pf, "
                "%llu sw-pf, %llu writeback\n",
                (unsigned long long)demand, (unsigned long long)hwpf,
                (unsigned long long)swpf, (unsigned long long)wb);
    std::printf("  locality score      : %.2f  (1.0 = streaming, "
                "~0 = random)\n",
                tracer.localityScore());
    std::printf("  bandwidth           : %.1f GB/s (%.0f%% of peak)\n",
                r.totalGBs, r.totalGBs / plat.peakGBs * 100.0);
    std::printf("  latency mean/p50/p95/p99: %.0f / %.0f / %.0f / %.0f "
                "ns\n",
                r.avgMemLatencyNs, r.p50MemLatencyNs, r.p95MemLatencyNs,
                r.p99MemLatencyNs);

    std::printf("  telemetry           : %llu snapshots of %zu series\n",
                static_cast<unsigned long long>(registry.snapshots()),
                registry.allSeries().size());

    if (argc > 3 && obs::writeExport(argv[3], tracer.toCsv()))
        std::printf("  trace window written: %s\n", argv[3]);
    if (argc > 4) {
        std::vector<obs::JsonSection> extra{{"trace", tracer.toJson()}};
        std::string json = obs::exportJson(registry, nullptr, extra);
        if (obs::writeExport(argv[4], json))
            std::printf("  metrics written     : %s\n", argv[4]);
    }
    return 0;
}
