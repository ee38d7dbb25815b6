#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>

namespace fs = std::filesystem;

namespace perfbench
{

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

void
Books::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

void
Metrics::append(const Metrics &other)
{
    for (const Entry &e : other.entries_)
        set(e.name, e.value, e.unit);
}

std::vector<std::string>
Metrics::nonFinite() const
{
    std::vector<std::string> out;
    for (const Entry &e : entries_) {
        if (!std::isfinite(e.value))
            out.push_back(e.name);
    }
    return out;
}

std::string
Metrics::json() const
{
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        double v = std::isfinite(e.value) ? e.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
}

namespace
{
thread_local uint64_t tlsParent = 0;
thread_local uint64_t tlsOp = 0;
} // namespace

double
Tracer::nowNs() const
{
    return std::chrono::duration<double, std::nano>(Clock::now() - origin_)
        .count();
}

uint64_t
Tracer::newOp()
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextOp_++;
}

Tracer::Scope::Scope(Tracer *tracer, const char *name, uint64_t op)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    {
        std::lock_guard<std::mutex> lock(tracer_->mu_);
        span_.id = tracer_->nextId_++;
    }
    span_.name = name;
    span_.parent = tlsParent;
    span_.op = op ? op : tlsOp;
    savedParent_ = tlsParent;
    savedOp_ = tlsOp;
    tlsParent = span_.id;
    tlsOp = span_.op;
    span_.startNs = tracer_->nowNs();
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    span_.endNs = tracer_->nowNs();
    tlsParent = savedParent_;
    tlsOp = savedOp_;
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    tracer_->spans_.push_back(std::move(span_));
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children of one span never overlap (a span's children run on its
    // own thread, one after another), so self = duration - sum(children).
    std::map<uint64_t, double> childNs;
    for (const Span &s : spans_) {
        if (s.parent)
            childNs[s.parent] += s.endNs - s.startNs;
    }
    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += (s.endNs - s.startNs - childNs[s.id]) * 1e-9;
    }
    return self;
}

std::vector<double>
Tracer::durationsNs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.endNs - s.startNs);
    }
    return out;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    for (const Span &s : spans_) {
        out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"op\": " << s.op << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << static_cast<int64_t>(s.startNs)
            << ", \"end_ns\": " << static_cast<int64_t>(s.endNs) << "}\n";
    }
    return static_cast<bool>(out);
}

bool
copyCommittedProfiles(const std::string &root, const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec)
        return false;
    size_t copied = 0;
    for (const fs::directory_entry &e :
         fs::directory_iterator(root + "/data/profiles", ec)) {
        if (!e.is_regular_file() || e.path().extension() != ".profile")
            continue;
        fs::copy_file(e.path(), dir + "/" + e.path().filename().string(),
                      ec);
        if (ec)
            return false;
        ++copied;
    }
    return !ec && copied > 0;
}

std::string
hashTree(const std::string &dir)
{
    std::vector<fs::path> files;
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::recursive_directory_iterator(dir, ec)) {
        if (e.is_regular_file())
            files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    uint64_t h = 1469598103934665603ULL;
    auto feed = [&h](const std::string &bytes) {
        for (unsigned char c : bytes) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    };
    for (const fs::path &p : files) {
        feed(fs::relative(p, dir).string());
        std::ifstream in(p, std::ios::binary);
        feed(std::string(std::istreambuf_iterator<char>(in), {}));
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
useProfileStore(const std::string &dir)
{
    setenv("LLL_PROFILE_DIR", dir.c_str(), 1);
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace perfbench
