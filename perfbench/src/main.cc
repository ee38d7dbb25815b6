/**
 * @file
 * perfbench: the end-to-end benchmark of the LLL library (README.md).
 *
 *   perfbench --root DIR --work DIR --workload mixed|hits --seed N
 *             --seconds S --trace 0|1
 *
 * Every run sets up all three phases (reproduce, search, serve) five
 * times and reports the median set-up time, then measures each phase
 * once.  The last stdout line is the result object; with --trace 0 it
 * carries the end-to-end metrics, with --trace 1 the per-layer ones.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "phases.hh"

namespace fs = std::filesystem;

using namespace perfbench;

namespace
{

constexpr int kSetupReps = 5;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --root DIR --work DIR "
                 "--workload mixed|hits --seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

void
merge(PhaseOut &into, const PhaseOut &from)
{
    into.books.attempted += from.books.attempted;
    into.books.failed += from.books.failed;
    into.books.correct &= from.books.correct;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string work;
    bool haveTrace = false, haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--root") {
            cfg.root = v;
        } else if (a == "--work") {
            work = v;
        } else if (a == "--workload") {
            cfg.workload = v;
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(v, &end, 10);
            haveSeed = *v && !*end;
        } else if (a == "--seconds") {
            cfg.seconds = std::strtod(v, &end);
            if (!*v || *end || !(cfg.seconds > 0 && cfg.seconds <= 60))
                return usage("--seconds must be in (0, 60]");
        } else if (a == "--trace") {
            cfg.trace = std::strcmp(v, "1") == 0;
            haveTrace = cfg.trace || std::strcmp(v, "0") == 0;
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }
    if (cfg.root.empty() || work.empty() || !haveSeed || !haveTrace)
        return usage("--root, --work, --seed and --trace are required");
    ServeMix mix;
    if (cfg.workload == "mixed")
        mix = ServeMix::Mixed;
    else if (cfg.workload == "hits")
        mix = ServeMix::Hits;
    else
        return usage("--workload must be mixed or hits");

    cfg.workDir = work + "/run-" + std::to_string(::getpid());
    cfg.observedDir = work + "/observed";
    std::error_code ec;
    fs::create_directories(cfg.workDir, ec);
    if (!ec)
        fs::create_directories(cfg.observedDir, ec);
    if (ec)
        return usage("cannot create the work directory");

    PhaseOut total;
    std::vector<double> setupS;
    std::string profileHash;
    std::unique_ptr<ServePhase> serve;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        total.books.check(stopServe(serve), "serve: listener stop");
        const Clock::time_point t0 = Clock::now();
        profileHash = setupReproduce(cfg, total.books);
        setupSearch(cfg, total.books);
        serve = setupServe(cfg, mix, total.books);
        setupS.push_back(secondsSince(t0));
    }
    total.e2e.set("setup_s", median(setupS), "s");

    Tracer reproduceTrace, searchTrace, serveTrace;
    PhaseOut reproduce, search, served;
    if (total.books.correct) {
        runReproduce(cfg, cfg.trace ? &reproduceTrace : nullptr, reproduce);
        runSearch(cfg, cfg.trace ? &searchTrace : nullptr, search);
        if (serve)
            runServe(*serve, cfg, cfg.trace ? &serveTrace : nullptr, served);
    }
    total.books.check(stopServe(serve), "serve: listener stop");

    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    total.e2e.set("peak_rss_mb", ru.ru_maxrss / 1024.0, "MiB");

    Metrics &result = cfg.trace ? total.layer : total.e2e;
    for (const PhaseOut *p : {&reproduce, &search, &served}) {
        merge(total, *p);
        const Metrics &from = cfg.trace ? p->layer : p->e2e;
        result.append(from);
    }
    if (cfg.trace) {
        const std::pair<const char *, const Tracer *> traces[] = {
            {"reproduce", &reproduceTrace},
            {"search", &searchTrace},
            {"serve", &serveTrace}};
        const std::string dir = work + "/traces";
        fs::create_directories(dir, ec);
        for (const auto &[phase, tracer] : traces) {
            for (const auto &[layer, s] : tracer->selfSeconds())
                result.set(std::string("self_s.") + phase + "." + layer, s,
                           "s");
            const std::string path = dir + "/" + cfg.workload + "-seed" +
                                     std::to_string(cfg.seed) + "-" + phase +
                                     ".jsonl";
            total.books.check(tracer->write(path), "write " + path);
        }
    }
    for (const std::string &name : result.nonFinite())
        total.books.check(false, "metric " + name + " is not finite");
    fs::remove_all(cfg.workDir, ec);

    std::printf("profile_store_hash %s\n", profileHash.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                total.books.correct ? "true" : "false",
                static_cast<unsigned long long>(total.books.attempted),
                static_cast<unsigned long long>(total.books.failed),
                result.json().c_str());
    return 0;
}
