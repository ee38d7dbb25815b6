#include "xmem/latency_profile.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace lll::xmem
{

using util::ErrorCode;
using util::Result;
using util::Status;

LatencyProfile::LatencyProfile(std::string platform_name, double peak_gbs,
                               std::vector<Point> points)
    : platformName_(std::move(platform_name)), peakGBs_(peak_gbs),
      points_(std::move(points))
{
    lll_assert(!points_.empty(), "latency profile needs at least one point");
    std::sort(points_.begin(), points_.end(),
              [](const Point &a, const Point &b) { return a.bwGBs < b.bwGBs; });
    // Enforce a physically sensible curve: latency never decreases as
    // bandwidth rises (isotonic cleanup of measurement noise).
    for (size_t i = 1; i < points_.size(); ++i) {
        points_[i].latencyNs =
            std::max(points_[i].latencyNs, points_[i - 1].latencyNs);
    }
}

double
LatencyProfile::latencyAt(double bw_gbs) const
{
    return lookup(bw_gbs).latencyNs;
}

LatencyProfile::Lookup
LatencyProfile::lookup(double bw_gbs) const
{
    lll_assert(!points_.empty(), "lookup on empty profile");
    Lookup result;
    if (bw_gbs < points_.front().bwGBs) {
        result.latencyNs = points_.front().latencyNs;
        result.belowMeasuredRange = true;
        return result;
    }
    if (bw_gbs > points_.back().bwGBs) {
        result.latencyNs = points_.back().latencyNs;
        result.aboveMeasuredRange = true;
        return result;
    }
    for (size_t i = 1; i < points_.size(); ++i) {
        if (bw_gbs <= points_[i].bwGBs) {
            const Point &a = points_[i - 1];
            const Point &b = points_[i];
            double t = b.bwGBs > a.bwGBs
                           ? (bw_gbs - a.bwGBs) / (b.bwGBs - a.bwGBs)
                           : 0.0;
            result.latencyNs = a.latencyNs + t * (b.latencyNs - a.latencyNs);
            return result;
        }
    }
    result.latencyNs = points_.back().latencyNs;
    return result;
}

double
LatencyProfile::idleLatencyNs() const
{
    lll_assert(!points_.empty(), "idleLatencyNs on empty profile");
    return points_.front().latencyNs;
}

double
LatencyProfile::minMeasuredGBs() const
{
    lll_assert(!points_.empty(), "minMeasuredGBs on empty profile");
    return points_.front().bwGBs;
}

double
LatencyProfile::maxMeasuredGBs() const
{
    lll_assert(!points_.empty(), "maxMeasuredGBs on empty profile");
    return points_.back().bwGBs;
}

std::string
LatencyProfile::serialize() const
{
    std::ostringstream out;
    out << "# lll latency profile v1\n";
    out << "platform " << platformName_ << "\n";
    out << "peak_gbs " << peakGBs_ << "\n";
    char buf[80];
    for (const Point &pt : points_) {
        std::snprintf(buf, sizeof(buf), "point %.4f %.4f\n", pt.bwGBs,
                      pt.latencyNs);
        out << buf;
    }
    return out.str();
}

Result<LatencyProfile>
LatencyProfile::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    std::string name;
    double peak = 0.0;
    std::vector<Point> points;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.starts_with('#'))
            continue;
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue; // blank or whitespace-only, e.g. a CRLF file's "\r"
        if (key == "platform") {
            ls >> name;
            if (name.empty()) {
                return Status::error(ErrorCode::CorruptData,
                                     "line %d: platform name missing",
                                     lineno);
            }
        } else if (key == "peak_gbs") {
            ls >> peak;
            if (ls.fail() || !std::isfinite(peak) || peak <= 0.0) {
                return Status::error(ErrorCode::CorruptData,
                                     "line %d: bad peak_gbs: '%s'", lineno,
                                     line.c_str());
            }
        } else if (key == "point") {
            Point pt{};
            ls >> pt.bwGBs >> pt.latencyNs;
            if (ls.fail() || !std::isfinite(pt.bwGBs) ||
                !std::isfinite(pt.latencyNs) || pt.bwGBs < 0.0 ||
                pt.latencyNs <= 0.0) {
                return Status::error(ErrorCode::CorruptData,
                                     "line %d: malformed profile point: "
                                     "'%s'",
                                     lineno, line.c_str());
            }
            points.push_back(pt);
        } else {
            return Status::error(ErrorCode::CorruptData,
                                 "line %d: unknown profile key: '%s'",
                                 lineno, key.c_str());
        }
        // A line cut short and glued to the next one parses as a
        // plausible value followed by garbage: refuse the rest.
        std::string rest;
        if (ls >> rest) {
            return Status::error(ErrorCode::CorruptData,
                                 "line %d: trailing '%s' after %s", lineno,
                                 rest.c_str(), key.c_str());
        }
    }
    if (name.empty())
        return Status::error(ErrorCode::CorruptData,
                             "incomplete latency profile: no platform");
    if (peak <= 0.0)
        return Status::error(ErrorCode::CorruptData,
                             "incomplete latency profile: no peak_gbs");
    if (points.empty())
        return Status::error(ErrorCode::CorruptData,
                             "incomplete latency profile: no points");
    return LatencyProfile(name, peak, std::move(points));
}

Status
LatencyProfile::save(const std::string &path) const
{
    std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }
    // Write a private temp file beside the target and rename it into
    // place: a concurrent reader, in this process or another, sees the
    // old file or the new one, never a half-written one.
    static std::atomic<uint64_t> seq{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(seq.fetch_add(1));
    std::ofstream out(tmp);
    if (!out) {
        return Status::error(ErrorCode::IoError,
                             "cannot write latency profile to '%s'",
                             path.c_str());
    }
    out << serialize();
    out.close();
    if (!out) {
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::IoError,
                             "short write to latency profile '%s'",
                             path.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::IoError,
                             "cannot write latency profile to '%s'",
                             path.c_str());
    }
    return Status::okStatus();
}

Result<LatencyProfile>
LatencyProfile::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return Status::error(ErrorCode::NotFound,
                             "no latency profile at '%s'", path.c_str());
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
        return Status::error(ErrorCode::IoError,
                             "read error on latency profile '%s'",
                             path.c_str());
    }
    Result<LatencyProfile> parsed = parse(buf.str());
    if (!parsed.ok())
        return parsed.status().withContext("loading '%s'", path.c_str());
    return parsed;
}

} // namespace lll::xmem
