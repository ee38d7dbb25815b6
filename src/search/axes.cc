#include "search/axes.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lll::search
{

using util::ErrorCode;
using util::Status;

namespace
{

/** How an axis value is validated before it reaches the simulator. */
enum class ValueKind
{
    Count,    //!< positive integer
    PowerOf2, //!< positive integer power of two
    Nanos,    //!< positive finite double
};

struct AxisImpl
{
    AxisDef def;
    ValueKind kind;
    /** Sets the (checked) axis value on a platform. */
    void (*apply)(platforms::Platform &p, double value);
};

const std::vector<AxisImpl> &
axisImpls()
{
    using P = platforms::Platform;
    static const std::vector<AxisImpl> impls = {
        // Both layers for MSHRs: the analyzer reads the table-level
        // count, the simulator the prototype's.
        {{"l1_mshrs", "per-core L1 MSHR entries"}, ValueKind::Count,
         [](P &p, double v) { p.proto.l1.mshrs = p.l1Mshrs = unsigned(v); }},
        {{"l2_mshrs", "per-core L2 MSHR entries"}, ValueKind::Count,
         [](P &p, double v) { p.proto.l2.mshrs = p.l2Mshrs = unsigned(v); }},
        {{"banks", "memory controller banks (0 = derive from peak)"},
         ValueKind::Count,
         [](P &p, double v) { p.proto.mem.banksOverride = unsigned(v); }},
        {{"pf_degree", "L2 prefetcher max issues per trigger"},
         ValueKind::Count,
         [](P &p, double v) { p.proto.pf.degree = unsigned(v); }},
        {{"pf_distance", "L2 prefetcher run-ahead distance (lines)"},
         ValueKind::Count,
         [](P &p, double v) { p.proto.pf.distance = unsigned(v); }},
        {{"pf_table", "L2 prefetcher tracked-stream table size"},
         ValueKind::Count,
         [](P &p, double v) { p.proto.pf.tableSize = unsigned(v); }},
        {{"l2_sets", "L2 sets (power of two)"}, ValueKind::PowerOf2,
         [](P &p, double v) { p.proto.l2.sets = unsigned(v); }},
        {{"l2_ways", "L2 associativity"}, ValueKind::Count,
         [](P &p, double v) { p.proto.l2.ways = unsigned(v); }},
        {{"mem_front_ns", "memory request-path latency (ns)"},
         ValueKind::Nanos,
         [](P &p, double v) { p.proto.mem.frontLatencyNs = v; }},
        {{"bank_service_ns", "per-line bank occupancy (ns)"},
         ValueKind::Nanos,
         [](P &p, double v) { p.proto.mem.bankServiceNs = v; }},
    };
    return impls;
}

const AxisImpl *
findAxis(const std::string &name)
{
    for (const AxisImpl &impl : axisImpls()) {
        if (name == impl.def.name)
            return &impl;
    }
    return nullptr;
}

Status
checkValue(const AxisImpl &impl, double v)
{
    switch (impl.kind) {
      case ValueKind::Count:
        if (!(v >= 1.0) || v != std::floor(v) || v > 1e9) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "axis %s wants a positive integer, "
                                 "got %g", impl.def.name, v);
        }
        return Status::okStatus();
      case ValueKind::PowerOf2: {
        const auto n = static_cast<uint64_t>(v);
        if (!(v >= 1.0) || v != std::floor(v) || v > 1e9 ||
            (n & (n - 1)) != 0) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "axis %s wants a power of two, got %g",
                                 impl.def.name, v);
        }
        return Status::okStatus();
      }
      case ValueKind::Nanos:
        if (!std::isfinite(v) || !(v > 0.0) || v > 1e9) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "axis %s wants a positive latency in "
                                 "ns, got %g", impl.def.name, v);
        }
        return Status::okStatus();
    }
    return Status::error(ErrorCode::Internal, "unreachable axis kind");
}

util::Result<double>
parseNumber(const AxisImpl &impl, const std::string &text)
{
    if (text.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "axis %s: empty value", impl.def.name);
    }
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (*end != '\0') {
        return Status::error(ErrorCode::InvalidArgument,
                             "axis %s: '%s' is not a number",
                             impl.def.name, text.c_str());
    }
    LLL_RETURN_IF_ERROR(checkValue(impl, v));
    return v;
}

std::string
fmtValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** Expand `lo:hi:+step` / `lo:hi:*factor` / `a,b,c` for @p impl. */
util::Result<std::vector<double>>
parseValues(const AxisImpl &impl, const std::string &spec)
{
    std::vector<double> out;
    const size_t c1 = spec.find(':');
    if (c1 != std::string::npos) {
        const size_t c2 = spec.find(':', c1 + 1);
        if (c2 == std::string::npos || spec.find(':', c2 + 1) !=
                                           std::string::npos) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "axis %s: ranges are lo:hi:+step or "
                                 "lo:hi:*factor, got '%s'",
                                 impl.def.name, spec.c_str());
        }
        util::Result<double> lo =
            parseNumber(impl, spec.substr(0, c1));
        if (!lo.ok())
            return lo.status();
        util::Result<double> hi =
            parseNumber(impl, spec.substr(c1 + 1, c2 - c1 - 1));
        if (!hi.ok())
            return hi.status();
        std::string step = spec.substr(c2 + 1);
        if (step.size() < 2 || (step[0] != '+' && step[0] != '*')) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "axis %s: step must be +N or *N, "
                                 "got '%s'", impl.def.name,
                                 step.c_str());
        }
        const bool geometric = step[0] == '*';
        char *end = nullptr;
        const double k = std::strtod(step.c_str() + 1, &end);
        if (*end != '\0' || !std::isfinite(k) ||
            (geometric ? k <= 1.0 : k <= 0.0)) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "axis %s: step '%s' must be a %s",
                                 impl.def.name, step.c_str(),
                                 geometric ? "factor > 1"
                                           : "positive increment");
        }
        if (*hi < *lo) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "axis %s: range %g:%g is empty",
                                 impl.def.name, *lo, *hi);
        }
        // Bounded by the 1e9 value cap, so this cannot spin forever.
        for (double v = *lo; v <= *hi;
             v = geometric ? v * k : v + k) {
            LLL_RETURN_IF_ERROR(checkValue(impl, v));
            out.push_back(v);
        }
        return out;
    }
    size_t start = 0;
    while (start <= spec.size()) {
        const size_t comma = spec.find(',', start);
        const std::string item =
            comma == std::string::npos ? spec.substr(start)
                                       : spec.substr(start, comma - start);
        util::Result<double> v = parseNumber(impl, item);
        if (!v.ok())
            return v.status();
        out.push_back(*v);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

const std::vector<AxisDef> &
knownAxes()
{
    static const std::vector<AxisDef> defs = [] {
        std::vector<AxisDef> d;
        for (const AxisImpl &impl : axisImpls())
            d.push_back(impl.def);
        return d;
    }();
    return defs;
}

util::Result<Axis>
parseAxis(const std::string &text)
{
    const size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "axis '%s' is not name=values",
                             text.c_str());
    }
    Axis axis;
    axis.name = text.substr(0, eq);
    const AxisImpl *impl = findAxis(axis.name);
    if (!impl) {
        std::string names;
        for (const AxisDef &d : knownAxes())
            names += std::string(names.empty() ? "" : ", ") + d.name;
        return Status::error(ErrorCode::InvalidArgument,
                             "unknown axis '%s' (known: %s)",
                             axis.name.c_str(), names.c_str());
    }
    util::Result<std::vector<double>> values =
        parseValues(*impl, text.substr(eq + 1));
    if (!values.ok())
        return values.status();
    axis.values = values.take();
    for (size_t i = 0; i < axis.values.size(); ++i) {
        for (size_t j = i + 1; j < axis.values.size(); ++j) {
            if (axis.values[i] == axis.values[j]) {
                return Status::error(ErrorCode::InvalidArgument,
                                     "axis %s lists value %s twice",
                                     axis.name.c_str(),
                                     fmtValue(axis.values[i]).c_str());
            }
        }
    }
    // Canonical value order: the cross product (and therefore the
    // output) must not depend on how the user wrote the range.
    std::sort(axis.values.begin(), axis.values.end());
    return axis;
}

std::string
Assignment::label() const
{
    std::string out;
    for (const auto &[name, value] : values) {
        if (!out.empty())
            out += ",";
        out += name + "=" + fmtValue(value);
    }
    return out;
}

util::Result<Assignment>
parsePoint(const std::string &text)
{
    Assignment a;
    size_t start = 0;
    while (start <= text.size()) {
        const size_t comma = text.find(',', start);
        const std::string item =
            comma == std::string::npos ? text.substr(start)
                                       : text.substr(start, comma - start);
        const size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "point entry '%s' is not name=value",
                                 item.c_str());
        }
        const std::string name = item.substr(0, eq);
        const AxisImpl *impl = findAxis(name);
        if (!impl) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "point names unknown axis '%s'",
                                 name.c_str());
        }
        util::Result<double> v = parseNumber(*impl, item.substr(eq + 1));
        if (!v.ok())
            return v.status();
        for (const auto &[seen, val] : a.values) {
            (void)val;
            if (seen == name) {
                return Status::error(ErrorCode::InvalidArgument,
                                     "point assigns axis '%s' twice",
                                     name.c_str());
            }
        }
        a.values.emplace_back(name, *v);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (a.values.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "empty point");
    }
    std::sort(a.values.begin(), a.values.end());
    return a;
}

std::string
toWire(const Axis &axis)
{
    std::string out = axis.name + "=";
    for (size_t i = 0; i < axis.values.size(); ++i)
        out += (i ? "," : "") + fmtValue(axis.values[i]);
    return out;
}

util::Status
fromWire(const std::string &text, Axis &axis)
{
    util::Result<Axis> parsed = parseAxis(text);
    if (parsed.ok())
        axis = parsed.take();
    return parsed.status();
}

std::string
toWire(const Assignment &point)
{
    return point.label();
}

util::Status
fromWire(const std::string &text, Assignment &point)
{
    util::Result<Assignment> parsed = parsePoint(text);
    if (parsed.ok())
        point = parsed.take();
    return parsed.status();
}

util::Status
applyAxisValue(platforms::Platform &platform, const std::string &axis,
               double value)
{
    const AxisImpl *impl = findAxis(axis);
    if (!impl) {
        return Status::error(ErrorCode::InvalidArgument,
                             "unknown axis '%s'", axis.c_str());
    }
    LLL_RETURN_IF_ERROR(checkValue(*impl, value));
    impl->apply(platform, value);
    return Status::okStatus();
}

util::Result<platforms::Platform>
applyAssignment(const platforms::Platform &base, const Assignment &assign)
{
    platforms::Platform candidate = base;
    for (const auto &[name, value] : assign.values)
        LLL_RETURN_IF_ERROR(applyAxisValue(candidate, name, value));
    candidate.name = base.name + "~" + assign.label();
    return candidate;
}

} // namespace lll::search
