#include "core/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/executor.hh"
#include "obs/timer.hh"
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
 * On-disk spill format generation.  v2 marks the capacity-managed
 * cache (entries participate in the spill-dir byte accounting and GC);
 * v1 files written by earlier releases parse as FailedPrecondition,
 * which lookup() treats as a plain miss — the stage re-simulates and
 * overwrites the stale file in the current format.
 */
constexpr int kSpillFormatVersion = 2;

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
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:   out += c; break;
        }
    }
    return out;
}

std::string
fmtG17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
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

/**
 * The spill file is flat JSON — every value sits at top level under a
 * dotted key — parsed by the state machine below rather than a JSON
 * library (the repo has none).  Keys and string values alternate, so
 * the scanner always knows whether a quote opens a key or a value.
 */
struct FlatJson
{
    std::map<std::string, std::string> scalars; //!< raw unquoted tokens
    std::map<std::string, std::string> strings;
    std::map<std::string, std::vector<std::string>> arrays;
    std::vector<std::string> missing; //!< fields asked for but absent
    std::vector<std::string> bad;     //!< fields that failed to parse

    double
    getD(const std::string &key)
    {
        auto it = scalars.find(key);
        if (it == scalars.end()) {
            missing.push_back(key);
            return 0.0;
        }
        char *end = nullptr;
        double v = std::strtod(it->second.c_str(), &end);
        if (end == it->second.c_str() || *end != '\0')
            bad.push_back(key);
        return v;
    }

    uint64_t
    getU(const std::string &key)
    {
        auto it = scalars.find(key);
        if (it == scalars.end()) {
            missing.push_back(key);
            return 0;
        }
        char *end = nullptr;
        uint64_t v = std::strtoull(it->second.c_str(), &end, 10);
        if (end == it->second.c_str() || *end != '\0')
            bad.push_back(key);
        return v;
    }

    int
    getI(const std::string &key)
    {
        return static_cast<int>(getU(key));
    }

    bool
    getB(const std::string &key)
    {
        auto it = scalars.find(key);
        if (it == scalars.end()) {
            missing.push_back(key);
            return false;
        }
        if (it->second == "true")
            return true;
        if (it->second != "false")
            bad.push_back(key);
        return false;
    }

    std::string
    getS(const std::string &key)
    {
        auto it = strings.find(key);
        if (it == strings.end()) {
            missing.push_back(key);
            return std::string();
        }
        return it->second;
    }
};

/** Read a quoted string starting at text[i] == '"'; leaves i one past
 *  the closing quote.  False on an unterminated string. */
bool
scanQuoted(const std::string &text, size_t &i, std::string *out)
{
    out->clear();
    for (++i; i < text.size(); ++i) {
        char c = text[i];
        if (c == '\\' && i + 1 < text.size()) {
            char e = text[++i];
            switch (e) {
              case 'n': out->push_back('\n'); break;
              case 't': out->push_back('\t'); break;
              default:  out->push_back(e); break;
            }
        } else if (c == '"') {
            ++i;
            return true;
        } else {
            out->push_back(c);
        }
    }
    return false;
}

util::Result<FlatJson>
scanFlatJson(const std::string &text)
{
    FlatJson out;
    size_t i = 0;
    auto skipWs = [&] {
        while (i < text.size() &&
               (text[i] == ' ' || text[i] == '\n' || text[i] == '\r' ||
                text[i] == '\t' || text[i] == ',' || text[i] == '{' ||
                text[i] == '}')) {
            ++i;
        }
    };
    while (true) {
        skipWs();
        if (i >= text.size())
            return out;
        if (text[i] != '"') {
            return Status::error(ErrorCode::CorruptData,
                                 "spill file: expected a key at offset "
                                 "%zu, found '%c'", i, text[i]);
        }
        std::string key;
        if (!scanQuoted(text, i, &key)) {
            return Status::error(ErrorCode::CorruptData,
                                 "spill file: unterminated key");
        }
        skipWs();
        if (i >= text.size() || text[i] != ':') {
            return Status::error(ErrorCode::CorruptData,
                                 "spill file: key \"%s\" has no value",
                                 key.c_str());
        }
        ++i;
        skipWs();
        if (i >= text.size()) {
            return Status::error(ErrorCode::CorruptData,
                                 "spill file: key \"%s\" has no value",
                                 key.c_str());
        }
        if (text[i] == '"') {
            std::string value;
            if (!scanQuoted(text, i, &value)) {
                return Status::error(ErrorCode::CorruptData,
                                     "spill file: unterminated string "
                                     "for \"%s\"", key.c_str());
            }
            out.strings[key] = std::move(value);
        } else if (text[i] == '[') {
            ++i;
            std::vector<std::string> items;
            while (true) {
                skipWs();
                if (i >= text.size()) {
                    return Status::error(ErrorCode::CorruptData,
                                         "spill file: unterminated array "
                                         "for \"%s\"", key.c_str());
                }
                if (text[i] == ']') {
                    ++i;
                    break;
                }
                if (text[i] != '"') {
                    return Status::error(
                        ErrorCode::CorruptData,
                        "spill file: array \"%s\" holds a non-string",
                        key.c_str());
                }
                std::string item;
                if (!scanQuoted(text, i, &item)) {
                    return Status::error(ErrorCode::CorruptData,
                                         "spill file: unterminated string "
                                         "in array \"%s\"", key.c_str());
                }
                items.push_back(std::move(item));
            }
            out.arrays[key] = std::move(items);
        } else {
            std::string token;
            while (i < text.size() && text[i] != ',' &&
                   text[i] != '\n' && text[i] != '}') {
                token.push_back(text[i++]);
            }
            while (!token.empty() && (token.back() == ' ' ||
                                      token.back() == '\r')) {
                token.pop_back();
            }
            out.scalars[key] = std::move(token);
        }
    }
}

} // namespace

uint64_t
hashKernelSpec(const sim::KernelSpec &spec)
{
    uint64_t h = 1469598103934665603ULL;
    h = mixStr(h, spec.name);
    h = mixU64(h, spec.streams.size());
    for (const sim::StreamDesc &s : spec.streams) {
        h = mixU64(h, static_cast<uint64_t>(s.kind));
        h = mixU64(h, s.footprintLines);
        h = mixD(h, s.weight);
        h = mixU64(h, static_cast<uint64_t>(s.strideLines));
        h = mixU64(h, s.store);
        h = mixU64(h, s.sharedAcrossThreads);
        h = mixD(h, s.reuseFraction);
        h = mixU64(h, s.reuseWindow);
        h = mixU64(h, s.swPrefetchable);
    }
    h = mixD(h, spec.computeCyclesPerOp);
    h = mixU64(h, spec.window);
    h = mixD(h, spec.workPerOp);
    h = mixU64(h, spec.swPrefetchL2);
    h = mixU64(h, spec.swPrefetchDistance);
    h = mixD(h, spec.swPrefetchOverheadCycles);
    return h;
}

std::string
stageMetricsJson(const StageMetrics &m, const std::string &key)
{
    std::ostringstream out;
    out << "{\n";
    auto str = [&out](const char *name, const std::string &v) {
        out << "  \"" << name << "\": \"" << jsonEscape(v) << "\",\n";
    };
    auto num = [&out](const char *name, double v) {
        out << "  \"" << name << "\": " << fmtG17(v) << ",\n";
    };
    auto uns = [&out](const char *name, uint64_t v) {
        out << "  \"" << name << "\": " << v << ",\n";
    };
    auto bol = [&out](const char *name, bool v) {
        out << "  \"" << name << "\": " << (v ? "true" : "false")
            << ",\n";
    };

    uns("version", kSpillFormatVersion);
    str("key", key);
    str("label", m.label);
    str("opts", optsToken(m.opts));
    num("throughput", m.throughput);

    const sim::RunResult &r = m.run;
    num("run.measureSeconds", r.measureSeconds);
    num("run.workDone", r.workDone);
    num("run.throughput", r.throughput);
    uns("run.opsIssued", r.opsIssued);
    num("run.readGBs", r.readGBs);
    num("run.writeGBs", r.writeGBs);
    num("run.totalGBs", r.totalGBs);
    num("run.demandFraction", r.demandFraction);
    num("run.memUtilization", r.memUtilization);
    num("run.avgMemLatencyNs", r.avgMemLatencyNs);
    num("run.p50MemLatencyNs", r.p50MemLatencyNs);
    num("run.p95MemLatencyNs", r.p95MemLatencyNs);
    num("run.p99MemLatencyNs", r.p99MemLatencyNs);
    num("run.avgMemOutstanding", r.avgMemOutstanding);
    num("run.avgL1MshrOccupancy", r.avgL1MshrOccupancy);
    num("run.avgL2MshrOccupancy", r.avgL2MshrOccupancy);
    num("run.maxL1MshrOccupancy", r.maxL1MshrOccupancy);
    num("run.maxL2MshrOccupancy", r.maxL2MshrOccupancy);
    uns("run.l1FullStalls", r.l1FullStalls);
    uns("run.l2FullStalls", r.l2FullStalls);
    uns("run.l1DemandMisses", r.l1DemandMisses);
    uns("run.l1DemandHits", r.l1DemandHits);
    uns("run.l2DemandMisses", r.l2DemandMisses);
    uns("run.l2DemandHits", r.l2DemandHits);
    uns("run.hwPrefIssued", r.hwPrefIssued);
    uns("run.hwPrefUseful", r.hwPrefUseful);
    uns("run.swPrefIssued", r.swPrefIssued);
    uns("run.l2PrefetchDropped", r.l2PrefetchDropped);
    uns("run.memReadLines", r.memReadLines);
    uns("run.memWriteLines", r.memWriteLines);
    uns("run.memHwPrefetchLines", r.memHwPrefetchLines);
    uns("run.memSwPrefetchLines", r.memSwPrefetchLines);
    uns("run.eventsProcessed", r.eventsProcessed);

    const counters::RoutineProfile &p = m.profile;
    str("profile.routine", p.routine);
    num("profile.seconds", p.seconds);
    num("profile.readGBs", p.readGBs);
    num("profile.writeGBs", p.writeGBs);
    num("profile.totalGBs", p.totalGBs);
    num("profile.demandFraction", p.demandFraction);
    bol("profile.demandFractionKnown", p.demandFractionKnown);

    const Analysis &a = m.analysis;
    str("analysis.routine", a.routine);
    str("analysis.platform", a.platform);
    num("analysis.bwGBs", a.bwGBs);
    num("analysis.pctPeak", a.pctPeak);
    num("analysis.latencyNs", a.latencyNs);
    num("analysis.idleLatencyNs", a.idleLatencyNs);
    num("analysis.nAvg", a.nAvg);
    str("analysis.accessClass", accessClassName(a.accessClass));
    str("analysis.limitingLevel", mshrLevelName(a.limitingLevel));
    uns("analysis.limitingMshrs", a.limitingMshrs);
    num("analysis.headroom", a.headroom);
    bol("analysis.nearMshrLimit", a.nearMshrLimit);
    bol("analysis.nearBandwidthLimit", a.nearBandwidthLimit);
    num("analysis.maxAchievableGBs", a.maxAchievableGBs);
    num("analysis.demandFraction", a.demandFraction);
    bol("analysis.demandFractionKnown", a.demandFractionKnown);
    uns("analysis.activeStreams", a.activeStreams);
    bol("analysis.activeStreamsKnown", a.activeStreamsKnown);
    uns("analysis.coresUsed", static_cast<uint64_t>(a.coresUsed));
    bol("analysis.bwBelowProfileRange", a.bwBelowProfileRange);
    bol("analysis.bwAboveProfileRange", a.bwAboveProfileRange);
    out << "  \"analysis.warnings\": [";
    for (size_t i = 0; i < a.warnings.size(); ++i) {
        out << (i ? ", " : "") << "\"" << jsonEscape(a.warnings[i])
            << "\"";
    }
    out << "]\n}\n";
    return out.str();
}

util::Result<StageMetrics>
parseStageMetricsJson(const std::string &text,
                      const std::string &expect_key)
{
    util::Result<FlatJson> scanned = scanFlatJson(text);
    if (!scanned.ok())
        return scanned.status();
    FlatJson &f = *scanned;

    if (f.getU("version") != kSpillFormatVersion) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "spill file: unsupported format version");
    }
    const std::string key = f.getS("key");
    if (!expect_key.empty() && key != expect_key) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "spill file: key mismatch (stored \"%s\")",
                             key.c_str());
    }

    StageMetrics m;
    m.label = f.getS("label");
    for (const std::string &token : [&f] {
             std::vector<std::string> toks;
             std::istringstream in(f.getS("opts"));
             std::string t;
             while (in >> t)
                 toks.push_back(t);
             return toks;
         }()) {
        std::optional<Opt> opt = workloads::optFromShortName(token);
        if (!opt) {
            return Status::error(ErrorCode::CorruptData,
                                 "spill file: unknown optimization "
                                 "\"%s\"", token.c_str());
        }
        m.opts = m.opts.with(*opt);
    }
    m.throughput = f.getD("throughput");

    sim::RunResult &r = m.run;
    r.measureSeconds = f.getD("run.measureSeconds");
    r.workDone = f.getD("run.workDone");
    r.throughput = f.getD("run.throughput");
    r.opsIssued = f.getU("run.opsIssued");
    r.readGBs = f.getD("run.readGBs");
    r.writeGBs = f.getD("run.writeGBs");
    r.totalGBs = f.getD("run.totalGBs");
    r.demandFraction = f.getD("run.demandFraction");
    r.memUtilization = f.getD("run.memUtilization");
    r.avgMemLatencyNs = f.getD("run.avgMemLatencyNs");
    r.p50MemLatencyNs = f.getD("run.p50MemLatencyNs");
    r.p95MemLatencyNs = f.getD("run.p95MemLatencyNs");
    r.p99MemLatencyNs = f.getD("run.p99MemLatencyNs");
    r.avgMemOutstanding = f.getD("run.avgMemOutstanding");
    r.avgL1MshrOccupancy = f.getD("run.avgL1MshrOccupancy");
    r.avgL2MshrOccupancy = f.getD("run.avgL2MshrOccupancy");
    r.maxL1MshrOccupancy = f.getD("run.maxL1MshrOccupancy");
    r.maxL2MshrOccupancy = f.getD("run.maxL2MshrOccupancy");
    r.l1FullStalls = f.getU("run.l1FullStalls");
    r.l2FullStalls = f.getU("run.l2FullStalls");
    r.l1DemandMisses = f.getU("run.l1DemandMisses");
    r.l1DemandHits = f.getU("run.l1DemandHits");
    r.l2DemandMisses = f.getU("run.l2DemandMisses");
    r.l2DemandHits = f.getU("run.l2DemandHits");
    r.hwPrefIssued = f.getU("run.hwPrefIssued");
    r.hwPrefUseful = f.getU("run.hwPrefUseful");
    r.swPrefIssued = f.getU("run.swPrefIssued");
    r.l2PrefetchDropped = f.getU("run.l2PrefetchDropped");
    r.memReadLines = f.getU("run.memReadLines");
    r.memWriteLines = f.getU("run.memWriteLines");
    r.memHwPrefetchLines = f.getU("run.memHwPrefetchLines");
    r.memSwPrefetchLines = f.getU("run.memSwPrefetchLines");
    r.eventsProcessed = f.getU("run.eventsProcessed");

    counters::RoutineProfile &p = m.profile;
    p.routine = f.getS("profile.routine");
    p.seconds = f.getD("profile.seconds");
    p.readGBs = f.getD("profile.readGBs");
    p.writeGBs = f.getD("profile.writeGBs");
    p.totalGBs = f.getD("profile.totalGBs");
    p.demandFraction = f.getD("profile.demandFraction");
    p.demandFractionKnown = f.getB("profile.demandFractionKnown");

    Analysis &a = m.analysis;
    a.routine = f.getS("analysis.routine");
    a.platform = f.getS("analysis.platform");
    a.bwGBs = f.getD("analysis.bwGBs");
    a.pctPeak = f.getD("analysis.pctPeak");
    a.latencyNs = f.getD("analysis.latencyNs");
    a.idleLatencyNs = f.getD("analysis.idleLatencyNs");
    a.nAvg = f.getD("analysis.nAvg");
    const std::string cls = f.getS("analysis.accessClass");
    if (cls == "random") {
        a.accessClass = AccessClass::Random;
    } else if (cls == "streaming") {
        a.accessClass = AccessClass::Streaming;
    } else {
        return Status::error(ErrorCode::CorruptData,
                             "spill file: unknown access class \"%s\"",
                             cls.c_str());
    }
    const std::string level = f.getS("analysis.limitingLevel");
    if (level == "L1") {
        a.limitingLevel = MshrLevel::L1;
    } else if (level == "L2") {
        a.limitingLevel = MshrLevel::L2;
    } else {
        return Status::error(ErrorCode::CorruptData,
                             "spill file: unknown MSHR level \"%s\"",
                             level.c_str());
    }
    a.limitingMshrs = static_cast<unsigned>(
        f.getU("analysis.limitingMshrs"));
    a.headroom = f.getD("analysis.headroom");
    a.nearMshrLimit = f.getB("analysis.nearMshrLimit");
    a.nearBandwidthLimit = f.getB("analysis.nearBandwidthLimit");
    a.maxAchievableGBs = f.getD("analysis.maxAchievableGBs");
    a.demandFraction = f.getD("analysis.demandFraction");
    a.demandFractionKnown = f.getB("analysis.demandFractionKnown");
    a.activeStreams = static_cast<unsigned>(
        f.getU("analysis.activeStreams"));
    a.activeStreamsKnown = f.getB("analysis.activeStreamsKnown");
    a.coresUsed = f.getI("analysis.coresUsed");
    a.bwBelowProfileRange = f.getB("analysis.bwBelowProfileRange");
    a.bwAboveProfileRange = f.getB("analysis.bwAboveProfileRange");
    auto warn = f.arrays.find("analysis.warnings");
    if (warn == f.arrays.end()) {
        return Status::error(ErrorCode::CorruptData,
                             "spill file: missing analysis.warnings");
    }
    a.warnings = warn->second;

    if (!f.missing.empty()) {
        return Status::error(ErrorCode::CorruptData,
                             "spill file: missing field \"%s\" (%zu "
                             "missing in total)",
                             f.missing.front().c_str(),
                             f.missing.size());
    }
    if (!f.bad.empty()) {
        return Status::error(ErrorCode::CorruptData,
                             "spill file: malformed value for \"%s\"",
                             f.bad.front().c_str());
    }
    return m;
}

std::string
ResultCache::stageKey(const platforms::Platform &platform,
                      const sim::KernelSpec &spec, const OptSet &opts,
                      uint64_t seed, double warmupUs, double measureUs,
                      int coresUsed)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "|spec:%016llx|opts:%s|seed:%llu|warmup:%.17g"
                  "|measure:%.17g|cores:%d",
                  static_cast<unsigned long long>(hashKernelSpec(spec)),
                  optsToken(opts).c_str(),
                  static_cast<unsigned long long>(seed), warmupUs,
                  measureUs, coresUsed);
    return platform.name + buf;
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

bool
ResultCache::lookup(const std::string &key, StageMetrics *out)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        *out = it->second.metrics;
        touchLocked(it->second);
        ++stats_.hits;
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
                return true;
            }
        }
    }
    ++stats_.misses;
    return false;
}

void
ResultCache::insert(const std::string &key, const StageMetrics &m)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(key))
        return;
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

std::vector<SweepUnit>
sweepUnits(const std::vector<platforms::Platform> &platforms,
           const std::vector<workloads::WorkloadPtr> &workloads)
{
    std::vector<SweepUnit> units;
    units.reserve(platforms.size() * workloads.size());
    for (const workloads::WorkloadPtr &w : workloads) {
        for (const platforms::Platform &p : platforms)
            units.push_back(SweepUnit{p, w.get()});
    }
    return units;
}

namespace
{

using ProfileMap =
    std::map<std::string, util::Result<xmem::LatencyProfile>>;

/**
 * Each distinct platform's latency profile, or the error that kept it
 * from loading, fetched through the profile store once per platform in
 * unit order, on the calling thread before any task starts.  With
 * @p stop_at_error the walk ends at the first platform that fails.
 */
template <typename Unit>
ProfileMap
loadProfiles(const std::vector<Unit> &units, bool stop_at_error)
{
    ProfileMap profiles;
    for (const Unit &u : units) {
        if (profiles.count(u.platform.name))
            continue;
        const auto it =
            profiles
                .emplace(u.platform.name,
                         xmem::XMemHarness().measureCachedChecked(
                             u.platform,
                             xmem::defaultProfilePath(u.platform)))
                .first;
        if (stop_at_error && !it->second.ok())
            break;
    }
    return profiles;
}

/** One unit's Experiment parameters; @p registry is the unit's
 *  private registry, or nullptr when the caller wants no telemetry. */
Experiment::Params
experimentParams(const SweepRunner::Params &rp, double warmup_us,
                 double measure_us, int cores_used, uint64_t seed,
                 obs::MetricRegistry *registry)
{
    Experiment::Params ep;
    ep.warmupUs = warmup_us;
    ep.measureUs = measure_us;
    ep.coresUsed = cores_used;
    ep.seed = seed;
    ep.resultCache = rp.cache;
    ep.sampler = rp.sampler;
    ep.registry = registry;
    return ep;
}

} // namespace

util::Result<std::vector<SweepRunner::UnitResult>>
SweepRunner::run(const std::vector<SweepUnit> &units)
{
    const ProfileMap profiles = loadProfiles(units, true);
    for (const SweepUnit &u : units) {
        const util::Result<xmem::LatencyProfile> &prof =
            profiles.at(u.platform.name);
        if (!prof.ok()) {
            return prof.status().withContext("sweep: profile for '%s'",
                                             u.platform.name.c_str());
        }
    }

    const size_t n = units.size();
    std::vector<UnitResult> results(n);
    std::vector<Status> statuses(n);
    std::vector<obs::MetricRegistry> registries(
        params_.registry ? n : 0);
    Executor(params_.jobs).run(n, [&](size_t i) {
        const SweepUnit &u = units[i];
        UnitResult &res = results[i];
        res.platform = u.platform.name;
        res.workload = u.workload->name();
        util::Result<Experiment> exp = Experiment::create(
            u.platform, *u.workload, *profiles.at(u.platform.name),
            experimentParams(params_, params_.warmupUs, params_.measureUs,
                             params_.coresUsed, params_.seed,
                             params_.registry ? &registries[i] : nullptr));
        if (!exp.ok()) {
            statuses[i] = exp.status().withContext(
                "sweep unit %s/%s", res.platform.c_str(),
                res.workload.c_str());
        } else {
            res.rows = exp->paperTable();
        }
    });

    // Merge-after-join, in unit order regardless of completion order
    // (registries is empty when the caller wants no telemetry).
    for (const obs::MetricRegistry &r : registries)
        params_.registry->mergeFrom(r);
    for (const Status &s : statuses) {
        if (!s.ok())
            return s;
    }
    return results;
}

std::vector<SweepRunner::StageOutcome>
SweepRunner::runStages(const std::vector<StageUnit> &units)
{
    const size_t n = units.size();
    std::vector<StageOutcome> outcomes(n);
    if (n == 0)
        return outcomes;

    // A platform whose profile cannot be loaded fails *its* units, not
    // the batch: the service contract is one status per request.
    const ProfileMap profiles = loadProfiles(units, false);
    std::vector<obs::MetricRegistry> registries(
        params_.registry ? n : 0);
    const Executor executor(params_.jobs);

    // Per-unit host timing: queue wait is measured from the fan-out
    // start so the service can attribute end-to-end request latency.
    obs::WallTimer fanout;
    executor.run(n, [&](size_t i) {
        const StageUnit &u = units[i];
        StageOutcome &out = outcomes[i];
        const double picked_up_ns = fanout.elapsedNs();
        out.queueWaitNs = picked_up_ns;

        const util::Result<xmem::LatencyProfile> &prof =
            profiles.at(u.platform.name);
        if (!prof.ok()) {
            out.status = prof.status().withContext(
                "profile for '%s'", u.platform.name.c_str());
        } else {
            util::Result<Experiment> exp = Experiment::create(
                u.platform, *u.workload, *prof,
                experimentParams(params_, u.warmupUs, u.measureUs,
                                 u.coresUsed, u.seed,
                                 params_.registry ? &registries[i]
                                                  : nullptr));
            if (!exp.ok()) {
                out.status = exp.status().withContext(
                    "stage unit %s/%s", u.platform.name.c_str(),
                    u.workload->name().c_str());
            } else {
                out.metrics = exp->stage(u.opts);
            }
        }
        out.simulateNs = fanout.elapsedNs() - picked_up_ns;
    });
    const double wall_ns = fanout.elapsedNs();
    if (!params_.registry)
        return outcomes;
    for (const obs::MetricRegistry &r : registries)
        params_.registry->mergeFrom(r);

    // Worker-utilization gauges: busy time over workers x wall.  Wall-
    // clock valued, so they live only on this (service) path — run()'s
    // merged telemetry is byte-compared across --jobs values.
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

} // namespace lll::core
