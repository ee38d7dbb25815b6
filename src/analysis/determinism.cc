#include "analysis/determinism.hh"

#include <cmath>

#include "sim/validator.hh"

namespace lll::analysis
{

using util::DiagnosticList;

namespace
{

/** Bit-exact compare, except that NaN equals NaN. */
bool
valuesDiffer(double baseline, double value)
{
    return baseline != value &&
           !(std::isnan(baseline) && std::isnan(value));
}

} // namespace

DeterminismReport
checkDeterminism(const Runner &runner, const DeterminismOptions &options,
                 const std::string &subject)
{
    DeterminismReport report;
    lll_assert(options.seeds.size() >= 2,
               "determinism check needs a baseline and at least one "
               "perturbed seed");

    const MetricVector baseline = runner(options.seeds.front());
    report.metricsCompared = baseline.size();
    report.seedsRun = 1;

    for (size_t s = 1; s < options.seeds.size(); ++s) {
        const uint64_t seed = options.seeds[s];
        const MetricVector run = runner(seed);
        ++report.seedsRun;

        if (run.size() != baseline.size()) {
            report.deterministic = false;
            report.diagnostics.error(
                "LLL-DET-002", subject,
                "tie-break seed 0x%llx produced %zu metrics where the "
                "baseline produced %zu; the run's shape depends on "
                "same-tick event order",
                static_cast<unsigned long long>(seed), run.size(),
                baseline.size());
            continue;
        }
        for (size_t i = 0; i < run.size(); ++i) {
            if (run[i].name != baseline[i].name) {
                report.deterministic = false;
                report.diagnostics.error(
                    "LLL-DET-002", subject,
                    "metric %zu is '%s' under tie-break seed 0x%llx "
                    "but '%s' in the baseline",
                    i, run[i].name.c_str(),
                    static_cast<unsigned long long>(seed),
                    baseline[i].name.c_str());
                continue;
            }
            if (valuesDiffer(baseline[i].value, run[i].value)) {
                report.deterministic = false;
                report.diffs.push_back({run[i].name, seed,
                                        baseline[i].value,
                                        run[i].value});
                report.diagnostics.error(
                    "LLL-DET-001", subject,
                    "metric '%s' depends on same-tick event pop order: "
                    "%.17g (insertion order) vs %.17g (tie-break seed "
                    "0x%llx) — simulator race",
                    run[i].name.c_str(), baseline[i].value,
                    run[i].value,
                    static_cast<unsigned long long>(seed));
            }
        }
    }
    return report;
}

MetricVector
runMetrics(const sim::RunResult &r)
{
    MetricVector out;
    auto collect = [&out](const char *name, auto v,
                          const util::FieldOpts &o = {}) {
        if ((o.tags & sim::kNotAMetric) == 0)
            out.push_back({name, static_cast<double>(v)});
    };
    visitFields(collect, r);
    return out;
}

util::Result<DeterminismReport>
checkRunDeterminism(const platforms::Platform &platform,
                    const workloads::Workload &workload,
                    const workloads::OptSet &opts,
                    const DeterminismOptions &options)
{
    util::Result<sim::SystemParams> sys =
        platform.trySysParams(platform.totalCores, opts.smtWays());
    if (!sys.ok()) {
        return sys.status().withContext(
            "determinism check %s/%s [%s]", platform.name.c_str(),
            workload.name().c_str(), opts.label().c_str());
    }
    const sim::KernelSpec spec = workload.spec(platform, opts);
    LLL_RETURN_IF_ERROR(sim::validateKernelSpec(spec));

    const std::string subject = platform.name + "/" + workload.name() +
                                " [" + opts.label() + "]";

    util::Status run_error = util::Status::okStatus();
    Runner runner = [&](uint64_t seed) -> MetricVector {
        sim::SystemParams params = *sys;
        params.tieBreakSeed = seed;
        sim::System system(params, spec);
        util::Result<sim::RunResult> r =
            system.runChecked(options.warmupUs, options.measureUs);
        if (!r.ok()) {
            if (run_error.ok())
                run_error = r.status();
            return {};
        }
        return runMetrics(*r);
    };

    DeterminismReport report =
        checkDeterminism(runner, options, subject);
    if (!run_error.ok()) {
        return run_error.withContext(
            "determinism check %s", subject.c_str());
    }
    return report;
}

} // namespace lll::analysis
