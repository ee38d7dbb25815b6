#include "faultinject/faultinject.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/analyzer.hh"
#include "counters/counter_bank.hh"
#include "obs/export.hh"
#include "obs/registry.hh"
#include "platforms/platform.hh"
#include "sim/validator.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "workloads/workload.hh"
#include "xmem/latency_profile.hh"
#include "xmem/profile_store.hh"

namespace lll::faultinject
{

using util::ErrorCode;
using util::Status;

bool
Report::allPassed() const
{
    return failures() == 0;
}

int
Report::failures() const
{
    int n = 0;
    for (const ScenarioResult &r : entries)
        n += r.passed ? 0 : 1;
    return n;
}

std::string
Report::render(bool verbose) const
{
    std::ostringstream out;
    for (const ScenarioResult &r : entries) {
        out << (r.passed ? "PASS" : "FAIL") << "  " << r.scenario;
        if (!r.passed || verbose)
            out << "\n      " << r.detail;
        out << "\n";
    }
    out << entries.size() - failures() << "/" << entries.size()
        << " scenarios passed\n";
    return out.str();
}

// --- Corruptors ------------------------------------------------------

std::string
truncateMidLine(const std::string &text)
{
    size_t last = text.find_last_of('\n', text.size() - 2);
    if (last == std::string::npos)
        return text.substr(0, text.size() / 2);
    // Keep roughly half of the final line.
    size_t keep = last + 1 + (text.size() - last - 1) / 2;
    return text.substr(0, keep);
}

std::string
injectGarbageLine(const std::string &text, Rng &rng)
{
    std::vector<size_t> starts{0};
    for (size_t i = 0; i + 1 < text.size(); ++i) {
        if (text[i] == '\n')
            starts.push_back(i + 1);
    }
    size_t at = starts[rng.below(static_cast<uint32_t>(starts.size()))];
    return text.substr(0, at) + "bogus_key 42 nonsense\n" + text.substr(at);
}

std::string
negatePoint(const std::string &text)
{
    size_t at = text.find("point ");
    if (at == std::string::npos)
        return text;
    return text.substr(0, at) + "point 1.0 -5.0\n" +
           text.substr(text.find('\n', at) + 1);
}

std::string
flipRandomBytes(const std::string &text, Rng &rng, int flips)
{
    std::string out = text;
    for (int i = 0; i < flips && !out.empty(); ++i) {
        size_t at = rng.below(static_cast<uint32_t>(out.size()));
        out[at] = static_cast<char>(rng.below(256));
    }
    return out;
}

// --- Scenario helpers ------------------------------------------------

namespace
{

/** A small, fast platform for the simulator-driven scenarios. */
platforms::Platform
fiPlatform()
{
    platforms::Platform p = platforms::skl();
    p.name = "fi";
    p.totalCores = 2;
    p.peakGBs = 24.0;
    p.peakGFlops = 100.0;
    p.proto.name = "fi";
    p.proto.mem.peakGBs = 24.0;
    return p;
}

xmem::LatencyProfile
fiProfile()
{
    std::vector<xmem::LatencyProfile::Point> pts;
    for (double frac : {0.05, 0.2, 0.5, 0.8, 0.92}) {
        pts.push_back({frac * 24.0, 80.0 + 120.0 * frac * frac});
    }
    return xmem::LatencyProfile("fi", 24.0, std::move(pts));
}

sim::KernelSpec
fiKernel()
{
    sim::KernelSpec k;
    k.name = "fi-kernel";
    sim::StreamDesc s;
    s.kind = sim::StreamDesc::Kind::Random;
    s.footprintLines = 1 << 14;
    k.streams.push_back(s);
    k.window = 4;
    k.computeCyclesPerOp = 2.0;
    return k;
}

/** Expect @p result's status to carry @p want. */
template <typename T>
ScenarioResult
expectCode(std::string scenario, const util::Result<T> &result,
           ErrorCode want)
{
    ScenarioResult r;
    r.scenario = std::move(scenario);
    if (result.ok()) {
        r.detail = lll::detail::format("expected %s, got a value",
                                       util::errorCodeName(want));
    } else {
        r.passed = result.status().code() == want;
        r.detail = result.status().toString();
        if (!r.passed) {
            r.detail = lll::detail::format("expected %s, got: %s",
                                           util::errorCodeName(want),
                                           r.detail.c_str());
        }
    }
    return r;
}

ScenarioResult
expectStatusCode(std::string scenario, const Status &status, ErrorCode want)
{
    ScenarioResult r;
    r.scenario = std::move(scenario);
    r.passed = status.code() == want;
    r.detail = status.toString();
    if (!r.passed) {
        r.detail = lll::detail::format("expected %s, got: %s",
                                       util::errorCodeName(want),
                                       r.detail.c_str());
    }
    return r;
}

/** Write @p text under the scratch dir and load it as a profile. */
util::Result<xmem::LatencyProfile>
loadCorrupted(const std::filesystem::path &dir, const char *name,
              const std::string &text)
{
    std::filesystem::path p = dir / name;
    std::ofstream out(p);
    out << text;
    out.close();
    return xmem::ProfileStore::global().load(p.string());
}

ScenarioResult
outOfRangeBwScenario(bool above)
{
    ScenarioResult r;
    r.scenario = above ? "analyzer-bw-above-range"
                       : "analyzer-bw-below-range";
    obs::MetricRegistry reg;
    core::Analyzer analyzer(fiPlatform(), fiProfile());
    analyzer.setRegistry(&reg);

    counters::RoutineProfile routine;
    routine.routine = above ? "too-hot" : "too-cold";
    routine.totalGBs = above ? 500.0 : 0.01;

    core::Analysis a = analyzer.analyze(routine, 2);
    bool flagged = above ? a.bwAboveProfileRange : a.bwBelowProfileRange;
    uint64_t warned = reg.counter("input_warnings_total").value();
    std::string json = obs::exportJson(reg);
    bool exported = json.find("clamped extrapolation") != std::string::npos;

    r.passed = flagged && !a.warnings.empty() && warned >= 1 && exported;
    r.detail = lll::detail::format(
        "flagged=%d warnings=%zu input_warnings_total=%llu in_json=%d "
        "latency=%.1f ns",
        flagged, a.warnings.size(),
        static_cast<unsigned long long>(warned), exported, a.latencyNs);
    return r;
}

ScenarioResult
wedgedSimScenario()
{
    ScenarioResult r;
    r.scenario = "watchdog-wedged-sim";

    sim::SystemParams sp = fiPlatform().sysParams(1, 1);
    sp.watchdog.cadenceUs = 1.0;
    sp.watchdog.maxStrikes = 2;

    // A "kernel" that computes for a simulated millisecond between
    // memory ops: from the event queue's point of view the run is
    // wedged — exactly the hang signature the watchdog exists for.
    sim::KernelSpec wedge = fiKernel();
    wedge.computeCyclesPerOp = 1e12;

    obs::MetricRegistry reg;
    sim::System sys(sp, wedge);
    sys.attachObservability(reg);
    util::Result<sim::RunResult> run = sys.runChecked(2.0, 5.0);

    uint64_t errors = reg.counter("sim_errors_total").value();
    if (run.ok()) {
        r.detail = "wedged run completed instead of tripping the watchdog";
        return r;
    }
    bool code_ok = run.status().code() == ErrorCode::DeadlineExceeded;
    bool has_diag =
        run.status().message().find("events=") != std::string::npos;
    r.passed = code_ok && has_diag && errors >= 1;
    r.detail = lll::detail::format("sim_errors_total=%llu status: %s",
                                   static_cast<unsigned long long>(errors),
                                   run.status().toString().c_str());
    return r;
}

ScenarioResult
configFuzzScenario(const Options &opts)
{
    ScenarioResult r;
    r.scenario = "config-fuzz";
    Rng rng(opts.seed, 0x51e57e57);
    int rejected = 0;
    int simulated = 0;

    for (int i = 0; i < opts.fuzzIterations; ++i) {
        sim::SystemParams sp = fiPlatform().sysParams(1, 1);
        sim::KernelSpec spec = fiKernel();
        spec.streams.front().footprintLines = 1 << 12;

        // A few random mutations per iteration, drawn from the knobs a
        // config file (or a hostile user) could reach.
        int mutations = 1 + rng.below(4);
        for (int m = 0; m < mutations; ++m) {
            switch (rng.below(12)) {
              case 0: sp.l1.sets = rng.below(300); break;
              case 1: sp.l1.mshrs = rng.below(6); break;
              case 2: sp.l2.ways = rng.below(4); break;
              case 3: sp.lqSize = rng.below(8); break;
              case 4: sp.threadsPerCore = rng.below(6); break;
              case 5: sp.mem.peakGBs = rng.uniform() * 60.0 - 10.0; break;
              case 6: sp.mem.bankServiceNs = rng.uniform() * 40.0 - 5.0;
                      break;
              case 7: sp.mem.banksOverride = rng.below(4); break;
              case 8: spec.window = rng.below(20); break;
              case 9: spec.streams.front().weight =
                          rng.uniform() * 3.0 - 1.0;
                      break;
              case 10: spec.streams.front().reuseFraction =
                           rng.uniform() * 2.0 - 0.5;
                       break;
              case 11: spec.computeCyclesPerOp = rng.uniform() * 8.0;
                       break;
            }
        }

        Status sp_ok = sim::validateSystemParams(sp);
        Status spec_ok = sim::validateKernelSpec(spec);
        if (!sp_ok.ok() || !spec_ok.ok()) {
            ++rejected;
            continue;
        }
        // The validator accepted it, so construction and a short run
        // must be safe (errors are fine; aborts are not).
        sim::System sys(sp, spec);
        util::Result<sim::RunResult> run = sys.runChecked(0.5, 1.0);
        (void)run;
        ++simulated;
    }

    r.passed = true;
    r.detail = lll::detail::format(
        "%d iterations: %d rejected by the validator, %d simulated "
        "without aborting", opts.fuzzIterations, rejected, simulated);
    return r;
}

ScenarioResult
profileByteFuzzScenario(const Options &opts)
{
    ScenarioResult r;
    r.scenario = "profile-byte-fuzz";
    Rng rng(opts.seed, 0xf00df00d);
    const std::string clean = fiProfile().serialize();
    int ok = 0;
    int corrupt = 0;

    for (int i = 0; i < opts.fuzzIterations; ++i) {
        std::string mangled = clean;
        if (rng.chance(0.3))
            mangled = mangled.substr(
                0, rng.below(static_cast<uint32_t>(mangled.size() + 1)));
        mangled = flipRandomBytes(mangled, rng, 1 + rng.below(8));

        util::Result<xmem::LatencyProfile> parsed =
            xmem::LatencyProfile::parse(mangled);
        if (parsed.ok())
            ++ok;
        else
            ++corrupt;
    }

    // Reaching this line is the assertion: no mangled input crashed.
    r.passed = true;
    r.detail = lll::detail::format(
        "%d iterations: %d still parsed, %d rejected as corrupt, 0 "
        "crashes", opts.fuzzIterations, ok, corrupt);
    return r;
}

} // namespace

Report
runAll(const Options &opts)
{
    Report report;
    Rng rng(opts.seed);

    // Corrupted profile files go to a seed-keyed temp directory.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("lll-selftest-" + std::to_string(opts.seed));
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);

    // Missing and damaged profile files.
    report.entries.push_back(expectCode(
        "profile-missing",
        xmem::ProfileStore::global().load(
            (dir / "does-not-exist.profile").string()),
        ErrorCode::NotFound));
    const std::string clean = fiProfile().serialize();
    report.entries.push_back(
        expectCode("profile-truncated",
                   loadCorrupted(dir, "truncated.profile",
                                 truncateMidLine(clean)),
                   ErrorCode::CorruptData));
    report.entries.push_back(
        expectCode("profile-garbage-key",
                   loadCorrupted(dir, "garbage.profile",
                                 injectGarbageLine(clean, rng)),
                   ErrorCode::CorruptData));
    report.entries.push_back(
        expectCode("profile-negative-point",
                   loadCorrupted(dir, "negative.profile",
                                 negatePoint(clean)),
                   ErrorCode::CorruptData));
    report.entries.push_back(expectCode(
        "profile-empty-file",
        loadCorrupted(dir, "empty.profile", ""), ErrorCode::CorruptData));

    // Unknown names.
    report.entries.push_back(expectCode(
        "platform-unknown", platforms::findPlatform("vax11"),
        ErrorCode::NotFound));
    report.entries.push_back(expectCode(
        "workload-unknown", workloads::findWorkload("lulesh"),
        ErrorCode::NotFound));

    // The shipped platforms must satisfy their own validator.
    {
        ScenarioResult r;
        r.scenario = "platforms-self-validate";
        r.passed = true;
        for (const platforms::Platform &p : platforms::allPlatforms()) {
            Status s = platforms::validatePlatform(p);
            if (!s.ok()) {
                r.passed = false;
                r.detail = s.toString();
                break;
            }
        }
        if (r.passed)
            r.detail = "skl, knl, a64fx all validate";
        report.entries.push_back(r);
    }

    // Inconsistent configurations.
    {
        sim::SystemParams sp = fiPlatform().sysParams(1, 1);
        sp.l1.mshrs = 0;
        report.entries.push_back(expectStatusCode(
            "config-zero-mshrs", sim::validateSystemParams(sp),
            ErrorCode::FailedPrecondition));
    }
    {
        sim::SystemParams sp = fiPlatform().sysParams(1, 1);
        sp.l2.sets = 3;
        report.entries.push_back(expectStatusCode(
            "config-non-pow2-sets", sim::validateSystemParams(sp),
            ErrorCode::FailedPrecondition));
    }
    {
        sim::SystemParams sp = fiPlatform().sysParams(1, 1);
        sp.mem.banksOverride = 1;   // one bank cannot sustain the peak
        report.entries.push_back(expectStatusCode(
            "config-bank-math", sim::validateSystemParams(sp),
            ErrorCode::FailedPrecondition));
    }
    {
        sim::KernelSpec spec = fiKernel();
        spec.streams.clear();
        report.entries.push_back(expectStatusCode(
            "kernel-no-streams", sim::validateKernelSpec(spec),
            ErrorCode::FailedPrecondition));
    }
    {
        sim::KernelSpec spec = fiKernel();
        spec.streams.front().kind = sim::StreamDesc::Kind::Strided;
        spec.streams.front().strideLines = 0;
        report.entries.push_back(expectStatusCode(
            "kernel-zero-stride", sim::validateKernelSpec(spec),
            ErrorCode::FailedPrecondition));
    }

    // Graceful degradation and the watchdog.
    report.entries.push_back(outOfRangeBwScenario(/*above=*/true));
    report.entries.push_back(outOfRangeBwScenario(/*above=*/false));
    report.entries.push_back(wedgedSimScenario());

    // Randomized stages.
    report.entries.push_back(configFuzzScenario(opts));
    report.entries.push_back(profileByteFuzzScenario(opts));

    // The socket front-end under hostile clients.
    for (ScenarioResult &r : listenerScenarios())
        report.entries.push_back(std::move(r));

    std::filesystem::remove_all(dir, ec);
    return report;
}

} // namespace lll::faultinject
