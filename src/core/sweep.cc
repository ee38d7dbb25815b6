#include "core/sweep.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/recipe.hh"
#include "obs/executor.hh"
#include "obs/span.hh"
#include "obs/timer.hh"
#include "util/fields.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workloads/spec_workload.hh"
#include "xmem/profile_store.hh"
#include "xmem/xmem_harness.hh"

namespace lll::core
{

using util::ErrorCode;
using util::Status;
using workloads::Opt;
using workloads::OptSet;

namespace
{

/**
 * On-disk spill format generation.  v3 spells every member by its
 * field-list wire name ("run.measure_seconds"); v2 (camelCase members)
 * and v1 files written by earlier releases parse as
 * FailedPrecondition, which lookup() treats as a plain miss — the
 * stage re-simulates and overwrites the stale file in the current
 * format.
 */
constexpr int kSpillFormatVersion = 3;

uint64_t
fnv1a(const void *data, size_t len, uint64_t h = 1469598103934665603ULL)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    return h;
}

uint64_t
mixU64(uint64_t h, uint64_t v)
{
    return fnv1a(&v, sizeof(v), h);
}

uint64_t
mixD(uint64_t h, double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return mixU64(h, bits);
}

uint64_t
mixStr(uint64_t h, const std::string &s)
{
    h = mixU64(h, s.size());
    return fnv1a(s.data(), s.size(), h);
}

std::string
optsToken(const OptSet &opts)
{
    std::string out;
    for (size_t i = 0; i < opts.opts().size(); ++i) {
        if (i)
            out += ' ';
        out += workloads::optShortName(opts.opts()[i]);
    }
    return out;
}

/** Mixes each visited field into an FNV-1a hash: doubles by their
 *  bits, strings with their length, integers, bools and enums as
 *  64-bit values, vectors as their size and then each element. */
struct SpecHasher
{
    uint64_t h = 1469598103934665603ULL;

    template <class T>
    void
    operator()(const char *, const T &v, const util::FieldOpts & = {})
    {
        if constexpr (std::is_same_v<T, double>) {
            h = mixD(h, v);
        } else if constexpr (std::is_same_v<T, std::string>) {
            h = mixStr(h, v);
        } else if constexpr (util::Vector<T>) {
            h = mixU64(h, v.size());
            for (const auto &item : v)
                visitFields(*this, item);
        } else {
            static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
            h = mixU64(h, static_cast<uint64_t>(v));
        }
    }
};

} // namespace

uint64_t
hashKernelSpec(const sim::KernelSpec &spec)
{
    SpecHasher hasher;
    visitFields(hasher, spec);
    return hasher.h;
}

StageUnit
requestUnit(const StageRequest &r, platforms::Platform platform,
            const workloads::Workload &workload)
{
    return {std::move(platform), &workload, r.opts, r.warmupUs,
            r.measureUs, r.cores, r.seed};
}

util::Result<ResolvedRequest>
resolveRequest(const StageRequest &r, const platforms::Platform *platform)
{
    util::Result<platforms::Platform> plat =
        platform ? *platform : platforms::findPlatform(r.platformName);
    if (!plat.ok())
        return plat.status();
    util::Result<workloads::WorkloadPtr> w =
        r.hasSpec ? workloads::inlineSpecWorkload(r.spec, r.randomDominated)
                  : workloads::findWorkload(r.workloadName);
    if (!w.ok())
        return w.status();
    StageUnit unit = requestUnit(r, plat.take(), **w);
    return ResolvedRequest{std::move(unit), w.take()};
}

std::string
requestLine(const StageRequest &r, const std::string &id)
{
    std::string out;
    util::JsonWriter w(out);
    w.beginObject().member("schema_version", 1);
    if (!id.empty())
        w.member("id", id);
    util::FieldWriter fields(w);
    visitFields(fields, r);
    w.end();
    return out;
}

std::string
stageMetricsJson(const StageMetrics &m, const std::string &key)
{
    std::string out;
    util::JsonWriter w(out);
    w.beginObject(util::JsonWriter::Layout::Block);
    w.member("version", kSpillFormatVersion);
    w.member("key", key);
    w.member("label", m.label);
    w.member("opts", optsToken(m.opts));
    w.member("throughput", m.throughput);

    util::FieldWriter run(w, "run.");
    visitFields(run, m.run);
    util::FieldWriter profile(w, "profile.");
    visitFields(profile, m.profile);
    util::FieldWriter analysis(w, "analysis.");
    visitFields(analysis, m.analysis);
    w.end();
    out += '\n';
    return out;
}

util::Result<StageMetrics>
parseStageMetricsJson(const std::string &text,
                      const std::string &expect_key)
{
    util::Result<util::JsonValue> doc = util::parseJson(text);
    if (!doc.ok())
        return doc.status();
    if (!doc->isObject()) {
        return Status::error(ErrorCode::CorruptData,
                             "spill file: top level is a %s, not an "
                             "object", doc->typeName());
    }
    using util::FieldReader;
    FieldReader f(*doc, FieldReader::Policy::Strict);
    int version = 0;
    std::string key;
    f("version", version);
    f("key", key);
    if (version != kSpillFormatVersion) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "spill file: unsupported format version");
    }
    if (!expect_key.empty() && key != expect_key) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "spill file: key mismatch (stored \"%s\")",
                             key.c_str());
    }

    StageMetrics m;
    std::string opts;
    f("label", m.label);
    f("opts", opts);
    f("throughput", m.throughput);
    FieldReader run(*doc, FieldReader::Policy::Strict, "run.");
    visitFields(run, m.run);
    FieldReader profile(*doc, FieldReader::Policy::Strict, "profile.");
    visitFields(profile, m.profile);
    FieldReader analysis(*doc, FieldReader::Policy::Strict, "analysis.");
    visitFields(analysis, m.analysis);
    for (const FieldReader *r : {&f, &run, &profile, &analysis}) {
        Status s = r->status();
        if (!s.ok())
            return s.withContext("spill file");
    }
    std::istringstream tokens(opts);
    for (std::string token; tokens >> token;) {
        std::optional<Opt> opt = workloads::optFromShortName(token);
        if (!opt) {
            return Status::error(ErrorCode::CorruptData,
                                 "spill file: unknown optimization "
                                 "\"%s\"", token.c_str());
        }
        m.opts = m.opts.with(*opt);
    }
    return m;
}

std::string
ResultCache::stageKey(const platforms::Platform &platform,
                      const sim::KernelSpec &spec, const OptSet &opts,
                      uint64_t seed, double warmupUs, double measureUs,
                      int coresUsed)
{
    // "<platform>|spec:%016llx|opts:%s|seed:%llu|warmup:%.17g|measure:
    // %.17g|cores:%d", appended piecewise (spill files store the key,
    // so its spelling never changes; tests/test_sweep.cc pins it).
    std::string key;
    key.reserve(platform.name.size() + 192);
    key += platform.name;
    key += "|spec:";
    char hex[16];
    uint64_t h = hashKernelSpec(spec);
    for (int i = 15; i >= 0; --i, h >>= 4)
        hex[i] = "0123456789abcdef"[h & 15];
    key.append(hex, sizeof(hex));
    key += "|opts:";
    key += optsToken(opts);
    char num[24];
    key += "|seed:";
    key.append(num, std::to_chars(num, num + sizeof(num), seed).ptr);
    key += "|warmup:";
    util::appendG17(key, warmupUs);
    key += "|measure:";
    util::appendG17(key, measureUs);
    key += "|cores:";
    key.append(num, std::to_chars(num, num + sizeof(num), coresUsed).ptr);
    return key;
}

std::string
ResultCache::spillPath(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.json",
                  static_cast<unsigned long long>(
                      fnv1a(key.data(), key.size())));
    return spillDir_ + "/" + name;
}

void
ResultCache::touchLocked(Entry &e)
{
    lru_.splice(lru_.begin(), lru_, e.lruIt);
}

void
ResultCache::insertLocked(const std::string &key, const StageMetrics &m)
{
    lru_.push_front(key);
    entries_.emplace(key, Entry{m, lru_.begin()});
    enforceEntryCapLocked();
}

void
ResultCache::enforceEntryCapLocked()
{
    if (maxEntries_ == 0)
        return;
    while (entries_.size() > maxEntries_) {
        // Memory-only eviction: the spill file (when configured)
        // stays, so a later lookup reloads instead of re-simulating.
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
}

CacheStats &
CacheStats::operator+=(const CacheStats &o)
{
    hits += o.hits;
    misses += o.misses;
    diskLoads += o.diskLoads;
    spills += o.spills;
    evictions += o.evictions;
    spillEvictions += o.spillEvictions;
    return *this;
}

void
ResultCache::reportLocked(Stats *mine, const Stats &before) const
{
    if (!mine)
        return;
    mine->hits += stats_.hits - before.hits;
    mine->misses += stats_.misses - before.misses;
    mine->diskLoads += stats_.diskLoads - before.diskLoads;
    mine->spills += stats_.spills - before.spills;
    mine->evictions += stats_.evictions - before.evictions;
    mine->spillEvictions += stats_.spillEvictions - before.spillEvictions;
}

bool
ResultCache::lookup(const std::string &key, StageMetrics *out,
                    Stats *mine)
{
    std::lock_guard<std::mutex> lock(mu_);
    const Stats before = stats_;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        *out = it->second.metrics;
        touchLocked(it->second);
        ++stats_.hits;
        reportLocked(mine, before);
        return true;
    }
    if (!spillDir_.empty()) {
        std::ifstream in(spillPath(key));
        if (in) {
            std::ostringstream text;
            text << in.rdbuf();
            util::Result<StageMetrics> parsed =
                parseStageMetricsJson(text.str(), key);
            // A stale, corrupt or hash-colliding file is a miss, not an
            // error: the stage simply re-simulates and overwrites it.
            if (parsed.ok()) {
                *out = *parsed;
                insertLocked(key, parsed.take());
                ++stats_.hits;
                ++stats_.diskLoads;
                reportLocked(mine, before);
                return true;
            }
        }
    }
    ++stats_.misses;
    reportLocked(mine, before);
    return false;
}

bool
ResultCache::probe(std::span<const AdmittedStage> stages,
                   std::vector<StageMetrics> *out)
{
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock())
        return false;
    for (const AdmittedStage &s : stages) {
        if (!entries_.count(s.stageKey))
            return false;
    }
    out->clear();
    for (const AdmittedStage &s : stages) {
        Entry &e = entries_.find(s.stageKey)->second;
        out->push_back(e.metrics);
        touchLocked(e);
        ++stats_.hits;
    }
    return true;
}

void
ResultCache::insert(const std::string &key, const StageMetrics &m,
                    Stats *mine)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(key))
        return;
    const Stats before = stats_;
    insertLocked(key, m);
    if (!spillDir_.empty()) {
        const std::string path = spillPath(key);
        std::error_code ec;
        const auto old_size = std::filesystem::file_size(path, ec);
        std::ofstream out(path, std::ios::out | std::ios::trunc);
        if (out) {
            const std::string text = stageMetricsJson(m, key);
            out << text;
            ++stats_.spills;
            if (!ec)
                spillBytes_ -= std::min<uint64_t>(spillBytes_, old_size);
            spillBytes_ += text.size();
            gcSpillLocked();
        }
    }
    reportLocked(mine, before);
}

util::Status
ResultCache::setSpillDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (dir.empty()) {
        spillDir_.clear();
        spillBytes_ = 0;
        return Status::okStatus();
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        return Status::error(ErrorCode::IoError,
                             "cannot create cache dir '%s': %s",
                             dir.c_str(), ec.message().c_str());
    }
    spillDir_ = dir;
    rescanSpillLocked();
    gcSpillLocked();
    return Status::okStatus();
}

void
ResultCache::setMaxEntries(size_t cap)
{
    std::lock_guard<std::mutex> lock(mu_);
    maxEntries_ = cap;
    enforceEntryCapLocked();
}

size_t
ResultCache::maxEntries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return maxEntries_;
}

void
ResultCache::setSpillBudget(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    spillBudget_ = bytes;
    gcSpillLocked();
}

uint64_t
ResultCache::spillBudget() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spillBudget_;
}

uint64_t
ResultCache::spillBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spillBytes_;
}

void
ResultCache::rescanSpillLocked()
{
    spillBytes_ = 0;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(spillDir_, ec)) {
        if (!de.is_regular_file() ||
            de.path().extension() != ".json") {
            continue;
        }
        std::error_code sec;
        const auto sz = de.file_size(sec);
        if (!sec)
            spillBytes_ += sz;
    }
}

void
ResultCache::gcSpillLocked()
{
    if (spillBudget_ == 0 || spillDir_.empty() ||
        spillBytes_ <= spillBudget_) {
        return;
    }
    struct SpillFile
    {
        std::filesystem::file_time_type mtime;
        uint64_t size;
        std::filesystem::path path;
    };
    std::vector<SpillFile> files;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(spillDir_, ec)) {
        if (!de.is_regular_file() ||
            de.path().extension() != ".json") {
            continue;
        }
        std::error_code sec;
        const auto sz = de.file_size(sec);
        const auto mt = de.last_write_time(sec);
        if (!sec)
            files.push_back({mt, sz, de.path()});
    }
    // Oldest first; path breaks mtime ties so the GC order (and with
    // it the eviction counter) is deterministic on coarse clocks.
    std::sort(files.begin(), files.end(),
              [](const SpillFile &a, const SpillFile &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });
    for (const SpillFile &f : files) {
        if (spillBytes_ <= spillBudget_)
            break;
        std::error_code rec;
        if (std::filesystem::remove(f.path, rec) && !rec) {
            spillBytes_ -= std::min<uint64_t>(spillBytes_, f.size);
            ++stats_.spillEvictions;
        }
    }
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
    stats_ = Stats();
}

ResultCache &
ResultCache::global()
{
    static ResultCache instance;
    return instance;
}

namespace
{

/** Each stage's refusal by its platform's profile in @p profiles: the
 *  load error, or in the unit's context what Analyzer::validateInputs,
 *  run once per platform, found; ok when the stage may run. */
std::vector<Status>
profileRefusals(const std::vector<AdmittedStage> &stages,
                const SweepRunner::Profiles &profiles)
{
    std::map<std::string, Status> checks;
    std::vector<Status> refusals;
    for (const AdmittedStage &s : stages) {
        const std::string &p = s.platform.name;
        const std::string w = s.workload->name();
        const util::Result<xmem::LatencyProfile> &prof = profiles.at(p);
        const auto [check, fresh] = checks.try_emplace(p);
        if (fresh && prof.ok())
            check->second = Analyzer::validateInputs(s.platform, *prof);
        refusals.push_back(
            prof.ok() ? check->second
                            .withContext("experiment '%s' on '%s'",
                                         w.c_str(), p.c_str())
                            .withContext("stage unit %s/%s", p.c_str(),
                                         w.c_str())
                      : prof.status());
    }
    return refusals;
}

/** Finish the outcome of @p s from its cached or simulated metrics
 *  @p m and its cache traffic @p share: the error in the unit's
 *  context, or the metrics and analyzer.variant.<label>.* gauges. */
void
finishOutcome(SweepRunner::StageOutcome &out, const AdmittedStage &s,
              util::Result<StageMetrics> m, const CacheStats &share,
              obs::MetricRegistry *registry)
{
    out.cache += share;
    if (!m.ok()) {
        out.status = m.status().withContext("stage unit %s/%s",
                                            s.platform.name.c_str(),
                                            s.workload->name().c_str());
        return;
    }
    out.metrics = m.take();
    if (registry) {
        const std::string prefix = "analyzer.variant." + s.opts.label();
        registry->setGauge(prefix + ".n_avg", out.metrics.analysis.nAvg);
        registry->setGauge(prefix + ".bw_gbps", out.metrics.analysis.bwGBs);
    }
}

} // namespace

SweepRunner::Profiles
SweepRunner::loadProfiles(const std::vector<AdmittedStage> &stages) const
{
    // A profile that must be characterized first fans its operating
    // points out over the runner's jobs (the caller plus helpers), so
    // no more than that many threads ever run.
    xmem::XMemHarness::Params hp;
    hp.jobs = params_.jobs;
    const xmem::XMemHarness harness(hp, pointMemo_);
    Profiles profiles;
    for (const AdmittedStage &s : stages) {
        if (profiles.count(s.platform.name))
            continue;
        util::Result<xmem::LatencyProfile> prof =
            harness.measureCachedChecked(
                s.platform, xmem::defaultProfilePath(s.platform));
        if (!prof.ok()) {
            prof = prof.status().withContext("profile for '%s'",
                                             s.platform.name.c_str());
        }
        profiles.emplace(s.platform.name, std::move(prof));
    }
    return profiles;
}

std::optional<std::vector<SweepRunner::StageOutcome>>
SweepRunner::probeAdmitted(const std::vector<AdmittedStage> &stages) const
{
    if (stages.empty())
        return std::vector<StageOutcome>();
    if (!params_.cache)
        return std::nullopt;
    obs::WallTimer timer;
    Profiles profiles;
    for (const AdmittedStage &s : stages) {
        if (profiles.count(s.platform.name))
            continue;
        std::optional<xmem::LatencyProfile> prof =
            xmem::ProfileStore::global().cached(
                xmem::defaultProfilePath(s.platform));
        if (!prof)
            return std::nullopt;
        profiles.emplace(s.platform.name, std::move(*prof));
    }
    for (const Status &refused : profileRefusals(stages, profiles)) {
        if (!refused.ok())
            return std::nullopt;
    }
    std::vector<StageMetrics> hits;
    if (!params_.cache->probe(stages, &hits))
        return std::nullopt;
    const double probe_ns = timer.elapsedNs();
    std::vector<StageOutcome> outcomes(stages.size());
    for (size_t i = 0; i < stages.size(); ++i) {
        outcomes[i].simulateNs = probe_ns;
        finishOutcome(outcomes[i], stages[i], std::move(hits[i]),
                      {.hits = 1}, params_.registry);
    }
    return outcomes;
}

std::vector<SweepRunner::StageOutcome>
SweepRunner::runStages(const std::vector<StageUnit> &units)
{
    std::vector<StageOutcome> outcomes(units.size());
    std::vector<AdmittedStage> admitted;
    std::vector<size_t> unit_of; //!< each admitted stage's unit
    for (size_t i = 0; i < units.size(); ++i) {
        util::Result<AdmittedStage> a = admitStage(units[i]);
        if (a.ok()) {
            admitted.push_back(a.take());
            unit_of.push_back(i);
        } else {
            outcomes[i].status = a.status();
        }
    }
    std::vector<StageOutcome> ran = runAdmitted(admitted);
    for (size_t j = 0; j < ran.size(); ++j)
        outcomes[unit_of[j]] = std::move(ran[j]);
    return outcomes;
}

std::vector<SweepRunner::StageOutcome>
SweepRunner::runAdmitted(const std::vector<AdmittedStage> &stages,
                         const Profiles &profiles)
{
    const size_t n = stages.size();
    std::vector<StageOutcome> outcomes(n);
    if (n == 0)
        return outcomes;

    // A platform whose profile cannot be loaded or checked fails *its*
    // units, not the batch: one status per request.
    const std::vector<Status> refusals = profileRefusals(stages, profiles);
    std::vector<obs::MetricRegistry> registries(
        params_.registry ? n : 0);
    const obs::Executor executor(params_.jobs);

    // Per-unit host timing: queue wait is measured from the fan-out
    // start so the service can attribute end-to-end request latency.
    obs::WallTimer fanout;
    executor.run(n, [&](size_t i) {
        const AdmittedStage &s = stages[i];
        StageOutcome &out = outcomes[i];
        const double picked_up_ns = fanout.elapsedNs();
        out.queueWaitNs = picked_up_ns;

        out.status = refusals[i];
        if (out.status.ok()) {
            obs::MetricRegistry *registry =
                params_.registry ? &registries[i] : nullptr;
            obs::ScopedSpan stage_span("stage[" + s.opts.label() + "]");
            // A hit builds no Experiment: the key captures every input
            // the stage's metrics are a pure function of.
            CacheStats share;
            util::Result<StageMetrics> m = StageMetrics();
            if (!params_.cache ||
                !params_.cache->lookup(s.stageKey, &*m, &share)) {
                m = Experiment(s.platform, *s.workload,
                               *profiles.at(s.platform.name),
                               {s.seed, registry})
                        .stage(s);
                if (m.ok() && params_.cache)
                    params_.cache->insert(s.stageKey, *m, &share);
            }
            finishOutcome(out, s, std::move(m), share, registry);
        }
        out.simulateNs = fanout.elapsedNs() - picked_up_ns;
    });
    const double wall_ns = fanout.elapsedNs();
    if (!params_.registry)
        return outcomes;
    for (const obs::MetricRegistry &r : registries)
        params_.registry->mergeFrom(r);

    // Worker-utilization gauges: busy time over workers x wall.  Wall-
    // clock valued, so a byte comparison of merged telemetry across
    // --jobs values zeroes them first.
    const double workers = static_cast<double>(executor.workers(n));
    double busy_ns = 0.0;
    for (const StageOutcome &o : outcomes)
        busy_ns += o.simulateNs;
    params_.registry->setGauge("sweep.workers", workers);
    params_.registry->setGauge("sweep.wall_ns", wall_ns);
    params_.registry->setGauge("sweep.busy_ns", busy_ns);
    params_.registry->setGauge(
        "sweep.worker_utilization",
        wall_ns > 0.0 ? busy_ns / (workers * wall_ns) : 0.0);
    return outcomes;
}

PaperPlan
planPaperTables(std::span<const platforms::Platform> platforms,
                std::span<const workloads::WorkloadPtr> workloads)
{
    PaperPlan plan;
    for (const workloads::WorkloadPtr &w : workloads) {
        for (const platforms::Platform &p : platforms) {
            // A variant several rows name is one stage of this table.
            std::map<std::string, size_t> index;
            auto stageOf = [&](const OptSet &opts) {
                const auto [it, fresh] =
                    index.try_emplace(opts.label(), plan.stages.size());
                if (fresh)
                    plan.stages.push_back({p, w.get(), opts});
                return it->second;
            };
            plan.tables.push_back({p, w.get(), {}});
            for (const workloads::ExperimentRow &er : w->paperRows(p)) {
                plan.tables.back().rows.push_back(
                    {er, stageOf(er.source),
                     er.applied ? stageOf(*er.applied) : 0});
            }
        }
    }
    return plan;
}

util::Result<std::vector<PaperTable>>
assemblePaperTables(const PaperPlan &plan,
                    const std::vector<SweepRunner::StageOutcome> &outcomes)
{
    lll_assert(outcomes.size() == plan.stages.size(),
               "%zu outcomes for %zu planned stages", outcomes.size(),
               plan.stages.size());
    for (const SweepRunner::StageOutcome &o : outcomes) {
        if (!o.status.ok())
            return o.status.withContext("sweep");
    }
    std::vector<PaperTable> tables;
    tables.reserve(plan.tables.size());
    for (const PaperPlan::Table &pt : plan.tables) {
        const Recipe recipe(pt.platform);
        PaperTable &t = tables.emplace_back(
            PaperTable{pt.platform.name, pt.workload->name(), {}});
        for (const PaperPlan::Row &pr : pt.rows) {
            const workloads::ExperimentRow &er = pr.walk;
            const StageMetrics &src = outcomes[pr.source].metrics;
            TableRow row;
            row.source = src.label;
            row.bwGBs = src.analysis.bwGBs;
            row.pctPeak = src.analysis.pctPeak;
            row.latencyNs = src.analysis.latencyNs;
            row.nAvg = src.analysis.nAvg;
            row.optLabel = er.optLabel;
            row.paperSpeedup = er.paperSpeedup;
            if (er.applied) {
                lll_assert(src.throughput > 0.0, "zero baseline throughput");
                row.speedup =
                    outcomes[pr.applied].metrics.throughput / src.throughput;
                // Was one of the optimizations this row adds on the
                // recipe's list at the source state?
                for (Opt o :
                     recipe.advise(src.analysis, er.source).recommendedOpts()) {
                    if (er.applied->has(o) && !er.source.has(o))
                        row.recipeRecommended = true;
                }
            }
            t.rows.push_back(std::move(row));
        }
    }
    return tables;
}

} // namespace lll::core
