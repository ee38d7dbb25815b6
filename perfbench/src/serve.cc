/**
 * @file
 * The serve phase: an in-process net::Listener (2 workers, loopback
 * TCP) in front of net::ServeHandler over one shared ResultCache, and
 * the benchmark's own open-loop generator.
 *
 * The generator is one thread with two non-blocking connections.  It
 * sends each request when it is due, whatever is still outstanding,
 * and times it from its due time, so time a request spends queued
 * behind a stall counts against it.  net::runLoadGen is not used: it
 * stamps requests when they are enqueued and runs a thread per
 * connection.
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <time.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fcntl.h>
#include <map>
#include <thread>

#include "core/sweep.hh"
#include "net/listener.hh"
#include "net/serve_handler.hh"
#include "phases.hh"
#include "platforms/platform.hh"
#include "service/service.hh"
#include "workloads/workload.hh"
#include "xmem/xmem_harness.hh"

using namespace lll;

namespace perfbench
{

namespace
{

constexpr int kWorkers = 2;
constexpr int kConns = 2;

/** Offered rates (requests/s), fixed so that every commit is loaded
 *  alike.  kLowRps and kHighRps are about 1/4 and 3/4 of the lowest
 *  warm saturation rate (p99 under kP99LimitMs) seen on a contended
 *  4-core x86 VM, so neither step saturates when other tenants load
 *  the host; the ladder above them reaches past the uncontended
 *  saturation (about 12000) so serve_max_rps can grow. */
constexpr double kLowRps = 800;
constexpr double kHighRps = 2400;
constexpr double kLadderStepRps = 200;
constexpr double kLadderTopRps = 16000;
/** A rung passes when its p99 is under this and no backlog grew. */
constexpr double kP99LimitMs = 50.0;
/** Share of a "mixed" step's requests that carry a fresh seed, so the
 *  stage is simulated (cold) instead of served from the cache.  At 1%,
 *  the cold requests and those queued behind them set the p99. */
constexpr double kColdShare = 0.01;
/** Length of the low and high steps, and of each rung above them, per
 *  second of --seconds. */
constexpr double kLevelShare = 0.3;
constexpr double kRungShare = 0.04;
/** A step's stragglers get this long to arrive before they count as
 *  failed. */
constexpr double kDrainS = 10.0;
/** The generator spins, instead of sleeping, this close to a due time. */
constexpr double kSpinS = 0.002;

/** The cached requests: four small stages on the three platforms. */
const char *const kWarmLines[] = {
    R"({"schema_version": 1, "id": "w0", "platform": "skl", "workload": "isx", "warmup_us": 5, "measure_us": 10})",
    R"({"schema_version": 1, "id": "w1", "platform": "knl", "workload": "hpcg", "warmup_us": 5, "measure_us": 10})",
    R"({"schema_version": 1, "id": "w2", "platform": "a64fx", "workload": "snap", "warmup_us": 5, "measure_us": 10})",
    R"({"schema_version": 2, "id": "w3", "platform": "skl", "workload": "comd", "opts": ["2-ht"], "warmup_us": 5, "measure_us": 10})",
};

std::string
coldLine(uint64_t seed)
{
    return R"({"schema_version": 1, "id": "c)" + std::to_string(seed) +
           R"(", "platform": "a64fx", "workload": "isx", "cores": 4, "seed": )" +
           std::to_string(seed) + R"(, "warmup_us": 1, "measure_us": 2})";
}

double
uniform01(uint64_t &state)
{
    state = mix64(state);
    return (static_cast<double>(state >> 11) + 0.5) * 0x1.0p-53;
}

struct Request
{
    double dueS = 0.0;
    const std::string *line = nullptr;
};

struct StepResult
{
    double rate = 0.0;
    std::vector<double> latencyMs; //!< ok responses, from due time
    std::vector<double> lateMs;    //!< send time - due time
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t wrong = 0; //!< answered, but not byte-equal to the reference
    size_t backlogAtEnd = 0;
    double littlesResidual = 0.0;
    double serverCpuS = 0.0; //!< CPU time of the listener's threads

    /** Latency percentile, each failed request counted as never
     *  answered. */
    double p(double pct) const
    {
        std::vector<double> all = latencyMs;
        all.insert(all.end(), failed, INFINITY);
        return percentile(std::move(all), pct);
    }
    bool pass() const
    {
        return failed == 0 && p(99) <= kP99LimitMs &&
               backlogAtEnd <= std::max(8.0, rate * kP99LimitMs * 1e-3);
    }
};

class Generator
{
  public:
    explicit Generator(int port) : port_(port) {}
    ~Generator() { closeAll(); }
    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    bool connectAll()
    {
        closeAll();
        for (Conn &c : conns_) {
            c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (c.fd < 0)
                return false;
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(static_cast<uint16_t>(port_));
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (::connect(c.fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) != 0)
                return false;
            int one = 1;
            ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
        }
        return true;
    }

    StepResult run(const std::vector<Request> &reqs, double rate,
                   const std::map<std::string, std::string> &expected);

  private:
    struct Conn
    {
        int fd = -1;
        std::string out;
        size_t off = 0;
        std::string in;
        std::deque<size_t> inflight;
    };

    void closeAll()
    {
        for (Conn &c : conns_) {
            if (c.fd >= 0)
                ::close(c.fd);
            c = Conn();
        }
    }

    int port_;
    Conn conns_[kConns];
};

StepResult
Generator::run(const std::vector<Request> &reqs, double rate,
               const std::map<std::string, std::string> &expected)
{
    StepResult res;
    res.rate = rate;
    res.attempted = reqs.size();
    const size_t n = reqs.size();
    std::vector<double> sentS(n, -1.0), doneS(n, -1.0);
    size_t next = 0, done = 0;
    bool broken = false;
    bool backlogTaken = false;
    const double endS = n ? reqs.back().dueS : 0.0;
    double areaS = 0.0; // integral of observed in-flight requests
    double lastS = 0.0;

    const Clock::time_point t0 = Clock::now();
    char buf[1 << 16];
    while (done < n) {
        double now = secondsSince(t0);
        areaS += static_cast<double>(next - done) * (now - lastS);
        lastS = now;
        if (!backlogTaken && now >= endS) {
            res.backlogAtEnd = n - done;
            backlogTaken = true;
        }
        if (now > endS + kDrainS || broken)
            break;
        for (; next < n && reqs[next].dueS <= now; ++next) {
            Conn &c = conns_[next % kConns];
            c.out += *reqs[next].line;
            c.out += '\n';
            c.inflight.push_back(next);
            sentS[next] = now;
        }
        pollfd pfds[kConns];
        for (int k = 0; k < kConns; ++k) {
            Conn &c = conns_[k];
            while (c.off < c.out.size()) {
                ssize_t w = ::send(c.fd, c.out.data() + c.off,
                                   c.out.size() - c.off, MSG_NOSIGNAL);
                if (w > 0) {
                    c.off += static_cast<size_t>(w);
                } else if (w < 0 && errno == EINTR) {
                    continue;
                } else {
                    broken |= !(w < 0 && (errno == EAGAIN ||
                                          errno == EWOULDBLOCK));
                    break;
                }
            }
            if (c.off == c.out.size()) {
                c.out.clear();
                c.off = 0;
            }
            pfds[k] = {c.fd, static_cast<short>(
                                 POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                       0};
        }
        double waitS = next < n ? reqs[next].dueS - secondsSince(t0)
                                : endS + kDrainS - secondsSince(t0);
        // Sleep until shortly before the next request is due, then
        // spin: waking a sleeping thread costs hundreds of microseconds
        // on a virtual CPU, which would make the generator itself late.
        waitS = std::clamp(waitS - kSpinS, 0.0, 0.05);
        timespec ts{0, static_cast<long>(waitS * 1e9)};
        if (::ppoll(pfds, kConns, &ts, nullptr) < 0 && errno != EINTR)
            broken = true;
        for (int k = 0; k < kConns; ++k) {
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &c = conns_[k];
            ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
            if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR &&
                           errno != EWOULDBLOCK)) {
                broken = true;
                continue;
            }
            if (r < 0)
                continue;
            c.in.append(buf, static_cast<size_t>(r));
            const double at = secondsSince(t0);
            size_t start = 0;
            for (size_t nl; (nl = c.in.find('\n', start)) !=
                            std::string::npos;
                 start = nl + 1) {
                if (c.inflight.empty()) {
                    broken = true;
                    break;
                }
                const size_t i = c.inflight.front();
                c.inflight.pop_front();
                ++done;
                auto it = expected.find(*reqs[i].line);
                if (it != expected.end() &&
                    c.in.compare(start, nl - start, it->second) == 0) {
                    doneS[i] = at;
                } else {
                    // A shed request is a failure; any other answer
                    // that is not the in-process one is a wrong one.
                    const size_t shed =
                        c.in.find("\"code\": \"unavailable\"", start);
                    res.wrong += shed == std::string::npos || shed > nl;
                }
            }
            c.in.erase(0, start);
        }
    }
    if (!backlogTaken)
        res.backlogAtEnd = n - done;

    double latSum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        if (sentS[i] >= 0)
            res.lateMs.push_back((sentS[i] - reqs[i].dueS) * 1e3);
        if (doneS[i] < 0) {
            ++res.failed;
            continue;
        }
        res.latencyMs.push_back((doneS[i] - reqs[i].dueS) * 1e3);
        latSum += doneS[i] - reqs[i].dueS;
    }
    // Little's law over the step: time-averaged in-flight requests as
    // the generator saw them, against completion rate x mean latency.
    const double spanS = lastS;
    if (spanS > 0 && areaS > 0 && !res.latencyMs.empty()) {
        const double L = areaS / spanS;
        const double lambda = res.latencyMs.size() / spanS;
        const double W = latSum / res.latencyMs.size();
        res.littlesResidual = std::fabs(L - lambda * W) / L;
    }
    if (done < n || broken)
        connectAll(); // drop stragglers so the next step starts clean
    return res;
}

double
cpuClockS(clockid_t clock)
{
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/** CPU time of every thread but the calling one, which is the
 *  generator: during a step that is the listener's event loop and
 *  workers. */
double
serverCpuS()
{
    return cpuClockS(CLOCK_PROCESS_CPUTIME_ID) -
           cpuClockS(CLOCK_THREAD_CPUTIME_ID);
}

std::string
profileDir(const RunConfig &cfg)
{
    return cfg.workDir + "/profiles-serve";
}

/** A step's request plan: Poisson arrivals at @p rate for @p seconds,
 *  warm lines chosen uniformly, plus the cold share in mixed mode. */
std::vector<Request>
planStep(ServePhase &sp, uint64_t seed, double rate, double seconds,
         std::vector<std::string> &coldLines)
{
    uint64_t rng = seed;
    std::vector<Request> reqs;
    for (double t = 0.0;;) {
        t += -std::log(uniform01(rng)) / rate;
        if (t >= seconds)
            break;
        Request r;
        r.dueS = t;
        const size_t pick = static_cast<size_t>(uniform01(rng) *
                                                sp.warmLines.size());
        r.line = &sp.warmLines[std::min(pick, sp.warmLines.size() - 1)];
        reqs.push_back(r);
    }
    if (sp.mix == ServeMix::Mixed) {
        const size_t cold = static_cast<size_t>(
            std::lround(kColdShare * reqs.size()));
        for (size_t k = 0; k < cold; ++k) {
            const size_t at = static_cast<size_t>(uniform01(rng) *
                                                  reqs.size());
            coldLines.push_back(coldLine(mix64(seed ^ mix64(k + 1)) >> 16));
            reqs[std::min(at, reqs.size() - 1)].line = nullptr;
        }
    }
    return reqs;
}

} // namespace

std::unique_ptr<ServePhase>
setupServe(const RunConfig &cfg, ServeMix mix, Books &books)
{
    auto sp = std::make_unique<ServePhase>();
    sp->mix = mix;
    const std::string dir = profileDir(cfg);
    books.check(copyCommittedProfiles(cfg.root, dir),
                "serve: copy committed profiles");
    useProfileStore(dir);
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        books.check(xmem::XMemHarness()
                        .measureCachedChecked(p, xmem::defaultProfilePath(p))
                        .ok(),
                    "serve: load profile " + p.name);
    }

    // Warm the shared cache; these answers are the reference for the
    // warm lines (a warm answer is byte-identical to a cold one).
    sp->warmLines.assign(std::begin(kWarmLines), std::end(kWarmLines));
    service::RunService::Params rp;
    rp.cache = &sp->cache;
    const std::vector<service::RunResponse> warm =
        service::RunService(rp).serveLines(sp->warmLines);
    for (size_t i = 0; i < warm.size(); ++i) {
        books.check(warm[i].status.ok(), "serve: warm " + sp->warmLines[i] +
                                             ": " +
                                             warm[i].status.toString());
        sp->expected[sp->warmLines[i]] = service::renderRunResponse(warm[i]);
    }

    net::ServeHandlerParams hp;
    hp.cache = &sp->cache;
    net::ListenerParams lp;
    lp.tcpPort = 0;
    lp.workers = kWorkers;
    ServePhase *raw = sp.get();
    lp.handler = [handler = net::ServeHandler(hp),
                  raw](const std::string &line, uint64_t req_no) {
        Tracer *tracer = raw->tracer.load();
        Tracer::Scope s(tracer, "service.handler",
                        tracer ? tracer->newOp() : 0);
        return handler(line, req_no);
    };
    sp->listener = std::make_unique<net::Listener>(std::move(lp));
    const util::Status started = sp->listener->start();
    books.check(started.ok(), "serve: listener start: " +
                                  started.toString());
    if (!started.ok())
        return nullptr;
    sp->loop = std::thread([raw] { raw->loopStatus = raw->listener->run(); });
    return sp;
}

bool
stopServe(std::unique_ptr<ServePhase> &sp)
{
    if (!sp)
        return true;
    if (sp->loop.joinable()) {
        sp->listener->requestShutdown();
        sp->loop.join();
    }
    const bool ok = sp->loopStatus.ok();
    if (!ok)
        std::fprintf(stderr, "perfbench: serve: listener: %s\n",
                     sp->loopStatus.toString().c_str());
    sp.reset();
    return ok;
}

void
runServe(ServePhase &sp, const RunConfig &cfg, Tracer *tracer,
         PhaseOut &out)
{
    useProfileStore(profileDir(cfg));
    Generator gen(sp.listener->tcpPort());
    out.books.check(gen.connectAll(), "serve: connect");
    if (!out.books.correct)
        return;

    // One step: plan it, answer its cold lines in process (uncached,
    // untimed) for the byte comparison, then offer it.
    auto runStep = [&](uint64_t stepSeed, double rate, double seconds) {
        std::vector<std::string> coldLines;
        std::vector<Request> plan =
            planStep(sp, stepSeed, rate, seconds, coldLines);
        service::RunService::Params rp;
        rp.jobs = kWorkers;
        const std::vector<service::RunResponse> ref =
            service::RunService(rp).serveLines(coldLines);
        for (size_t i = 0; i < ref.size(); ++i) {
            out.books.check(ref[i].status.ok(),
                            "serve: reference for " + coldLines[i]);
            sp.expected[coldLines[i]] = service::renderRunResponse(ref[i]);
        }
        size_t k = 0;
        for (Request &r : plan) {
            if (!r.line)
                r.line = &coldLines[k++];
        }
        const double cpu0 = serverCpuS();
        StepResult res = gen.run(plan, rate, sp.expected);
        res.serverCpuS = serverCpuS() - cpu0;
        out.books.attempted += res.attempted;
        out.books.failed += res.failed;
        if (res.wrong) {
            out.books.correct = false;
            std::fprintf(stderr,
                         "perfbench: serve: %llu answers differ from the "
                         "in-process RunService\n",
                         static_cast<unsigned long long>(res.wrong));
        }
        std::fprintf(stderr,
                     "perfbench: serve %5.0f req/s: %zu ok, %llu failed, "
                     "p50 %.3f ms, p99 %.3f ms, backlog %zu, late p99 "
                     "%.3f ms -> %s\n",
                     rate, res.latencyMs.size(),
                     static_cast<unsigned long long>(res.failed), res.p(50),
                     res.p(99), res.backlogAtEnd, percentile(res.lateMs, 99),
                     res.pass() ? "pass" : "miss");
        return res;
    };

    // The end-to-end serve metric is the CPU time the listener's threads
    // spend per request at the high rate.  Latency and the highest
    // sustainable rate follow host scheduling noise too closely to bound
    // a regression (README.md), so the traced run reports them as
    // per-layer metrics.
    const double levelS = cfg.seconds * kLevelShare;
    const StepResult high =
        runStep(mix64(cfg.seed * 1000 + 2), kHighRps, levelS);
    out.e2e.set("serve_cpu_us_per_req",
                high.serverCpuS / high.attempted * 1e6, "us");
    if (!tracer)
        return;

    const StepResult low = runStep(mix64(cfg.seed * 1000 + 1), kLowRps, levelS);
    // The ladder above kHighRps, searched by bisection: fewer rungs run
    // than a linear walk, on the assumption that a rung that misses the
    // limit is not followed by a faster one that meets it.
    double maxRps = low.pass() ? kLowRps : 0.0;
    if (low.pass() && high.pass()) {
        int lo = 0;
        int hi = static_cast<int>((kLadderTopRps - kHighRps) / kLadderStepRps) + 1;
        while (hi - lo > 1) {
            const int mid = (lo + hi) / 2;
            const double rate = kHighRps + mid * kLadderStepRps;
            const bool pass = runStep(mix64(cfg.seed * 1000 + 3 + mid), rate,
                                      cfg.seconds * kRungShare)
                                  .pass();
            (pass ? lo : hi) = mid;
        }
        maxRps = kHighRps + lo * kLadderStepRps;
    }
    const core::ResultCache::Stats cs = sp.cache.stats();
    Metrics &m = out.layer;
    m.set("serve_low_p50_ms", low.p(50), "ms");
    m.set("serve_low_p99_ms", low.p(99), "ms");
    m.set("serve_high_p50_ms", high.p(50), "ms");
    m.set("serve_high_p99_ms", high.p(99), "ms");
    m.set("serve_max_rps", maxRps, "1/s");
    m.set("core.cache_hit_ratio",
          static_cast<double>(cs.hits) / (cs.hits + cs.misses), "fraction");
    m.set("gen.late_p99_ms", percentile(high.lateMs, 99), "ms");
    m.set("gen.littles_residual", high.littlesResidual, "fraction");

    // Trace overhead: one warm-only plan at the high rate, offered
    // untraced and traced in turn, twice each so that drift between
    // passes falls on both sides, and compared on the listener's CPU
    // time.  Every traced request leaves one handler span.
    std::vector<std::string> noCold;
    std::vector<Request> again = planStep(
        sp, mix64(cfg.seed * 1000 + 999), kHighRps, levelS / 4, noCold);
    for (size_t i = 0; i < again.size(); ++i) {
        if (!again[i].line)
            again[i].line = &sp.warmLines[i % sp.warmLines.size()];
    }
    const size_t spansBefore = tracer->size();
    double cpuS[2] = {0.0, 0.0}; // [untraced, traced]
    double tracedWallS = 0.0;
    uint64_t tracedAttempted = 0;
    std::vector<double> tracedLatencyMs;
    for (int pass = 0; pass < 4; ++pass) {
        const bool traced = pass % 2 == 1;
        sp.tracer = traced ? tracer : nullptr;
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = serverCpuS();
        const StepResult res = gen.run(again, kHighRps, sp.expected);
        cpuS[traced] += serverCpuS() - cpu0;
        sp.tracer = nullptr;
        out.books.attempted += res.attempted;
        out.books.failed += res.failed;
        out.books.correct &= res.wrong == 0;
        if (traced) {
            tracedWallS += secondsSince(t0);
            tracedAttempted += res.attempted;
            tracedLatencyMs.insert(tracedLatencyMs.end(),
                                   res.latencyMs.begin(),
                                   res.latencyMs.end());
        }
    }
    const std::vector<double> handler = tracer->durationsNs("service.handler");
    out.books.check(tracer->size() - spansBefore == tracedAttempted,
                    "serve: one handler span per request");
    m.set("service.handler_p50_us", percentile(handler, 50) * 1e-3, "us");
    m.set("service.handler_p99_us", percentile(handler, 99) * 1e-3, "us");
    m.set("net.residual_us",
          percentile(tracedLatencyMs, 50) * 1e3 -
              percentile(handler, 50) * 1e-3,
          "us");
    m.set("trace_overhead_frac.serve", (cpuS[1] - cpuS[0]) / cpuS[0],
          "fraction");

    // Direct calls into each layer, on a warm line.
    constexpr int kCalls = 200;
    const std::string &line = sp.warmLines[0];
    service::RunService::Params rp;
    rp.cache = &sp.cache;
    service::RunService svc(rp);
    util::Result<service::RunRequest> parsed =
        service::parseRunRequest(line, 1);
    out.books.check(parsed.ok(), "serve: parse warm line");
    if (!parsed.ok())
        return;
    const service::RunRequest &req = *parsed;
    util::Result<platforms::Platform> plat =
        platforms::findPlatform(req.platformName);
    util::Result<workloads::WorkloadPtr> wl =
        workloads::findWorkload(req.workloadName);
    out.books.check(plat.ok() && wl.ok(), "serve: resolve warm line");
    if (!plat.ok() || !wl.ok())
        return;
    const std::string key = core::ResultCache::stageKey(
        *plat, (*wl)->spec(*plat, req.opts), req.opts, req.seed,
        req.warmupUs, req.measureUs, plat->defaultCores());
    core::SweepRunner::StageUnit unit;
    unit.platform = *plat;
    unit.workload = wl->get();
    unit.opts = req.opts;
    unit.seed = req.seed;
    unit.warmupUs = req.warmupUs;
    unit.measureUs = req.measureUs;
    core::SweepRunner::Params srp;
    srp.cache = &sp.cache;
    core::SweepRunner runner(srp);
    const Clock::time_point t0 = Clock::now();
    std::vector<service::RunResponse> resp;
    bool hits = true, same = true;
    for (int i = 0; i < kCalls; ++i) {
        {
            Tracer::Scope s(tracer, "service.serveLines", tracer->newOp());
            resp = svc.serveLines({line});
        }
        {
            Tracer::Scope s(tracer, "service.parse", tracer->newOp());
            (void)service::parseRunRequest(line, 1);
        }
        std::string rendered;
        {
            Tracer::Scope s(tracer, "service.render", tracer->newOp());
            rendered = service::renderRunResponse(resp.at(0));
        }
        same &= rendered == sp.expected.at(line);
        core::StageMetrics hit;
        {
            Tracer::Scope s(tracer, "core.cacheLookup", tracer->newOp());
            hits &= sp.cache.lookup(key, &hit);
        }
        {
            Tracer::Scope s(tracer, "core.runStages", tracer->newOp());
            hits &= runner.runStages({unit}).at(0).status.ok();
        }
    }
    out.books.check(same, "serve: serveLines answer differs");
    out.books.check(hits, "serve: direct cache lookups must hit");
    auto medUs = [&](const char *name) {
        return median(tracer->durationsNs(name)) * 1e-3;
    };
    m.set("service.serve_lines_us", medUs("service.serveLines"), "us");
    m.set("service.parse_us", medUs("service.parse"), "us");
    m.set("service.render_us", medUs("service.render"), "us");
    m.set("core.cache_lookup_us", medUs("core.cacheLookup"), "us");
    m.set("core.runstages_fixed_us", medUs("core.runStages"), "us");
    const double wallS = tracedWallS + secondsSince(t0);
    double selfSum = 0;
    for (const auto &[layer, s] : tracer->selfSeconds())
        selfSum += s;
    m.set("trace_coverage.serve", selfSum / (wallS * (kWorkers + 1)),
          "fraction");
}

} // namespace perfbench
